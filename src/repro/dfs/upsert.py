"""Keyed upsert datasets: base + delta parts, manifest-last commit.

The run-to-completion pipeline appends records and never looks back; a
continuous crawl re-delivers work after crashes and re-observes the same
entities every day, so its landing zone must absorb duplicates instead
of accumulating them. An :class:`UpsertDataset` is a keyed dataset laid
out as *base* parts plus an ordered chain of *delta* parts, tied
together by a single ``MANIFEST.json``:

* every write lands as a new immutable delta file (``delta-NNNNNN``),
  published by rewriting the manifest **last** via
  :meth:`~repro.dfs.filesystem.MiniDfs.write_atomic` — a crash before
  the manifest flip leaves an unreferenced file that :meth:`vacuum`
  reclaims, never a torn or half-visible dataset;
* each delta is tagged with the *work unit* that produced it; applying
  the same unit twice is a no-op (the manifest remembers), which is what
  makes redelivery after a crash **exactly-once in effect**;
* the merged view replays base then deltas in sequence order, newest
  record per key winning — readers see one record per key, always;
* :meth:`compact` folds base + deltas into a fresh base (manifest-last
  again) so the delta chain stays short without ever blocking writers.

Keys may be a single field name or a tuple of field names (composite
keys for edge datasets).
"""

from __future__ import annotations

import json
import posixpath
from dataclasses import dataclass, field
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence, Set,
                    Tuple, Union)

from repro.dfs.filesystem import MiniDfs
from repro.dfs.jsonlines import decode_lines, encode_record
from repro.util.errors import StorageError

MANIFEST_NAME = "MANIFEST.json"


@dataclass
class ApplyResult:
    """Outcome of one :meth:`UpsertDataset.apply` call."""

    unit_id: str
    applied: bool          # False: this unit already landed (skipped)
    records: int = 0
    delta_seq: int = -1
    new_keys: int = 0      # keys not present in the pre-delta view


@dataclass
class CompactionStats:
    """What one :meth:`UpsertDataset.compact` pass folded together."""

    deltas_folded: int = 0
    records_before: int = 0   # raw records across base + deltas
    records_after: int = 0    # distinct keys in the new base
    files_retired: int = 0    # old files left on disk for vacuum()


@dataclass
class _KeyIndex:
    """The keys of the merged view and the manifest layout they reflect.

    Private to one :class:`UpsertDataset` handle and never trusted on
    its own: every use re-validates ``base``/``deltas`` against a
    freshly loaded manifest (see :meth:`UpsertDataset._synced_index`).
    """

    base: Tuple[str, ...]
    #: ``(seq, file, unit, records)`` of each delta folded so far
    deltas: List[Tuple[int, str, str, int]] = field(default_factory=list)
    keys: Set[Tuple] = field(default_factory=set)


def _delta_layout(delta: Dict) -> Tuple[int, str, str, int]:
    return (delta["seq"], delta["file"], delta["unit"], delta["records"])


def _sorted_deltas(manifest: Dict) -> List[Dict]:
    return sorted(manifest["deltas"], key=lambda d: d["seq"])


def record_key(record: Dict, key_fields: Tuple[str, ...]) -> Tuple:
    """The (hashable) key of one record under the dataset's key spec."""
    try:
        return tuple(record[f] for f in key_fields)
    except KeyError as missing:
        raise StorageError(
            f"record is missing key field {missing}: {record!r}")


class UpsertDataset:
    """A keyed, idempotently-updatable dataset on the MiniDfs."""

    def __init__(self, dfs: MiniDfs, root: str,
                 key: Union[str, Sequence[str]] = "id",
                 records_per_part: int = 5000):
        self.dfs = dfs
        self.root = root.rstrip("/")
        self.key_fields: Tuple[str, ...] = (
            (key,) if isinstance(key, str) else tuple(key))
        if not self.key_fields:
            raise StorageError("upsert datasets need at least one key field")
        if records_per_part < 1:
            raise StorageError("records_per_part must be >= 1")
        self.records_per_part = records_per_part
        self._index: Optional[_KeyIndex] = None

    # ------------------------------------------------------------- manifest
    @property
    def manifest_path(self) -> str:
        return f"{self.root}/{MANIFEST_NAME}"

    def exists(self) -> bool:
        return self.dfs.exists(self.manifest_path)

    def _empty_manifest(self) -> Dict:
        return {"key": list(self.key_fields), "version": 0,
                "next_delta": 1, "base": [], "deltas": [],
                "applied_units": {}}

    def _load_manifest(self) -> Dict:
        if not self.exists():
            return self._empty_manifest()
        manifest = json.loads(self.dfs.read_text(self.manifest_path))
        if tuple(manifest["key"]) != self.key_fields:
            raise StorageError(
                f"{self.root}: manifest key {manifest['key']} does not "
                f"match dataset key {list(self.key_fields)}")
        return manifest

    def _store_manifest(self, manifest: Dict) -> None:
        manifest["version"] += 1
        self.dfs.write_atomic_text(
            self.manifest_path, json.dumps(manifest, sort_keys=True))

    # --------------------------------------------------------------- writes
    def apply(self, unit_id: str, records: Iterable[Dict],
              on_delta_written=None) -> ApplyResult:
        """Land one work unit's records; exactly-once by ``unit_id``.

        The delta file is written first, the manifest flip publishes it.
        ``on_delta_written`` is a chaos hook fired between the two steps
        (the ``mid-land`` crash point of the ingest drill). A re-applied
        unit returns ``applied=False`` without touching storage.
        """
        manifest = self._load_manifest()
        if unit_id in manifest["applied_units"]:
            return ApplyResult(unit_id=unit_id, applied=False,
                               delta_seq=manifest["applied_units"][unit_id])
        records = list(records)
        index = self._synced_index(manifest)
        new_keys = ({record_key(r, self.key_fields) for r in records}
                    - index.keys)
        seq = manifest["next_delta"]
        delta_path = f"{self.root}/delta-{seq:06d}.jsonl"
        lines = [encode_record(r) for r in records]
        self.dfs.write_atomic_text(delta_path, "\n".join(lines) + "\n"
                                   if lines else "")
        if on_delta_written is not None:
            on_delta_written()
        delta = {"seq": seq, "file": delta_path, "unit": unit_id,
                 "records": len(records)}
        manifest["deltas"].append(delta)
        manifest["applied_units"][unit_id] = seq
        manifest["next_delta"] = seq + 1
        self._store_manifest(manifest)
        # only now is the delta part of the view: a crash above leaves
        # the index at the old manifest, and what was just written is
        # never read back
        index.keys.update(new_keys)
        index.deltas.append(_delta_layout(delta))
        return ApplyResult(unit_id=unit_id, applied=True,
                           records=len(records), delta_seq=seq,
                           new_keys=len(new_keys))

    # ---------------------------------------------------------------- reads
    def _read_lines(self, path: str) -> List[Dict]:
        return decode_lines(self.dfs.read_text(path))

    def _file_keys(self, path: str) -> List[Tuple]:
        return [record_key(record, self.key_fields)
                for record in self._read_lines(path)]

    def _synced_index(self, manifest: Dict) -> _KeyIndex:
        """The key index brought level with ``manifest``.

        When the layout the index reflects is a prefix of the
        manifest's (same base, same leading deltas) only the deltas
        past it are read; anything else — a compaction, a rewritten
        chain, a fresh handle — rebuilds from every live file. Each
        file's keys and its layout entry go in together, so a read that
        fails leaves the index behind the manifest, never ahead of it.
        """
        base = tuple(manifest["base"])
        deltas = _sorted_deltas(manifest)
        index = self._index
        if (index is None or index.base != base
                or index.deltas != [_delta_layout(d)
                                    for d in deltas[:len(index.deltas)]]):
            index = _KeyIndex(base)
            for path in base:
                index.keys.update(self._file_keys(path))
            self._index = index
        for delta in deltas[len(index.deltas):]:
            index.keys.update(self._file_keys(delta["file"]))
            index.deltas.append(_delta_layout(delta))
        return index

    def _replay(self, manifest: Dict) -> Iterator[Dict]:
        """Every raw record, base then deltas in sequence order."""
        for path in self._live_files(manifest):
            yield from self._read_lines(path)

    def _merged(self, manifest: Optional[Dict] = None) -> Dict[Tuple, Dict]:
        manifest = manifest or self._load_manifest()
        return {record_key(record, self.key_fields): record
                for record in self._replay(manifest)}

    def read(self) -> List[Dict]:
        """The merged view: exactly one record per key, key-sorted."""
        view = self._merged()
        return [view[k] for k in sorted(view, key=repr)]

    def canonical_bytes(self) -> bytes:
        """A layout-independent fingerprintable encoding of the merged
        view — two datasets with identical logical content produce
        identical bytes regardless of how many deltas or compactions
        got them there."""
        return "\n".join(map(encode_record, self.read())).encode("utf-8")

    def key_count(self) -> int:
        return len(self._synced_index(self._load_manifest()).keys)

    def unit_records(self, unit_id: str) -> List[Dict]:
        """The records of exactly one applied unit's delta file; empty
        when the unit never landed or a compaction folded it away."""
        # newest first: callers ask about the unit that just landed
        for delta in reversed(self._load_manifest()["deltas"]):
            if delta["unit"] == unit_id:
                return self._read_lines(delta["file"])
        return []

    def applied_units(self) -> Dict[str, int]:
        """unit id → delta seq for every unit ever landed (compaction
        preserves this map: exactly-once must survive a compaction that
        races a redelivery)."""
        return dict(self._load_manifest()["applied_units"])

    def max_delta_seq(self) -> int:
        """Highest delta sequence ever assigned (the recompute
        watermark); compaction does not rewind it."""
        return self._load_manifest()["next_delta"] - 1

    def delta_files_since(self, watermark: int) -> List[Tuple[int, str]]:
        """(seq, path) of live delta files with ``seq > watermark``.

        Deltas folded away by a compaction no longer appear; callers
        that might race a compaction should read before compacting.
        """
        manifest = self._load_manifest()
        return sorted((d["seq"], d["file"]) for d in manifest["deltas"]
                      if d["seq"] > watermark)

    @staticmethod
    def _live_files(manifest: Dict) -> List[str]:
        return list(manifest["base"]) + [d["file"]
                                         for d in _sorted_deltas(manifest)]

    def live_files(self) -> List[str]:
        return self._live_files(self._load_manifest())

    def duplicate_key_groups(self) -> int:
        """Keys appearing in more than one live file — the quantity the
        chaos drill requires to stay small (upserts are legitimate
        overrides, but a *redelivered* unit must never add one)."""
        seen: Dict[Tuple, int] = {}
        for path in self.live_files():
            for record in self._read_lines(path):
                k = record_key(record, self.key_fields)
                seen[k] = seen.get(k, 0) + 1
        return sum(1 for count in seen.values() if count > 1)

    # ----------------------------------------------------------- maintenance
    def compact(self) -> CompactionStats:
        """Fold base + deltas into a fresh base; manifest-last commit.

        The old generation's files are NOT deleted here: a reader that
        loaded the pre-compaction manifest may still be mid-scan over
        them, and snapshot isolation means its view must stay readable
        until it lets go. Retired files become unreferenced the instant
        the new manifest is live, and the next :meth:`vacuum` pass
        reclaims them (vacuum only ever touches files the *current*
        manifest doesn't own, so it can never collect the new base). A
        crash anywhere leaves either the old dataset (manifest not yet
        flipped) or the new one plus garbage vacuum sweeps — never a
        broken view.
        """
        manifest = self._load_manifest()
        stats = CompactionStats(deltas_folded=len(manifest["deltas"]))
        view: Dict[Tuple, Dict] = {}
        for record in self._replay(manifest):
            view[record_key(record, self.key_fields)] = record
            stats.records_before += 1
        records = [view[k] for k in sorted(view, key=repr)]
        stats.records_after = len(records)
        old_files = self._live_files(manifest)
        generation = manifest["version"] + 1
        new_base: List[str] = []
        for i in range(0, max(1, len(records)), self.records_per_part):
            chunk = records[i:i + self.records_per_part]
            path = f"{self.root}/base-{generation:04d}-{len(new_base):05d}.jsonl"
            lines = [encode_record(r) for r in chunk]
            self.dfs.write_atomic_text(path, "\n".join(lines) + "\n"
                                       if lines else "")
            new_base.append(path)
        manifest["base"] = new_base
        manifest["deltas"] = []
        self._store_manifest(manifest)
        stats.files_retired = sum(1 for path in old_files
                                  if self.dfs.exists(path))
        return stats

    def vacuum(self) -> List[str]:
        """Delete data files under the root the manifest doesn't own.

        These are the leftovers of crashes between a delta/base write
        and its manifest flip. Hidden temp files are not ours to judge —
        :meth:`~repro.dfs.filesystem.MiniDfs.sweep_temps` owns those.
        Returns the reclaimed paths.
        """
        live = set(self.live_files())
        live.add(self.manifest_path)
        orphans = []
        for path in self.dfs.listdir(self.root):
            base = posixpath.basename(path)
            if base.startswith("."):
                continue
            if posixpath.dirname(path) != self.root:
                continue
            if path not in live:
                orphans.append(path)
        for path in orphans:
            self.dfs.delete(path)
        return orphans
