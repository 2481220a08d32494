"""Keyed upsert datasets: base + delta parts, published by a log append.

The run-to-completion pipeline appends records and never looks back; a
continuous crawl re-delivers work after crashes and re-observes the same
entities every day, so its landing zone must absorb duplicates instead
of accumulating them. An :class:`UpsertDataset` is a keyed dataset laid
out as *base* parts plus an ordered chain of *delta* parts, tied
together by an :class:`~repro.durable.EventLog` under ``<root>/_log``:

* every write lands as a new immutable delta file (``delta-NNNNNN``),
  published by appending one small ``{seq, file, unit, records}``
  record to the log **last** — a crash before the append leaves an
  unreferenced file that :meth:`vacuum` reclaims, never a torn or
  half-visible dataset;
* each delta is tagged with the *work unit* that produced it; applying
  the same unit twice is a no-op (the log remembers), which is what
  makes redelivery after a crash **exactly-once in effect**;
* the merged view replays base then deltas in sequence order, newest
  record per key winning — readers see one record per key, always;
* :meth:`compact` folds base + deltas into a fresh base and publishes
  it as the log's checkpoint (which also carries the key spec and every
  unit ever applied), so the delta chain stays short without ever
  blocking writers.

Base parts, live deltas, applied units and the watermark are the log's
fold: landing costs one delta write plus one append, whatever came before.

Keys may be a single field name or a tuple of field names (composite
keys for edge datasets).
"""

from __future__ import annotations

import posixpath
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.dfs.filesystem import MiniDfs
from repro.dfs.jsonlines import decode_lines, encode_record
from repro.durable import EventLog
from repro.util.errors import StorageError

LOG_DIR = "_log"


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
class _Layout:
    """The fold of a dataset's log."""

    base: Tuple[str, ...] = ()
    #: ``(seq, file, unit, records)`` of each live delta, in seq order
    deltas: List[Tuple[int, str, str, int]] = field(default_factory=list)
    #: unit id → delta seq, for every unit ever landed
    applied: Dict[str, int] = field(default_factory=dict)
    compactions: int = 0


@dataclass
class _KeyIndex:
    """The merged view's keys over one layout's base and first ``folded``
    deltas. A layout object only grows by appends (a checkpoint makes a
    new one), so same object means the index is a prefix of the log."""

    layout: _Layout
    folded: int = 0
    keys: Set[Tuple] = field(default_factory=set)


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
        self._layout = _Layout()
        self._index: Optional[_KeyIndex] = None
        self._log = EventLog(dfs, f"{self.root}/{LOG_DIR}",
                             reset=self._restart, fold=self._fold)

    # ------------------------------------------------------------------ log
    def _restart(self, state: Optional[Dict]) -> None:
        if state is not None and tuple(state["key"]) != self.key_fields:
            raise StorageError(
                f"{self.root}: dataset key {state['key']} does not match "
                f"handle key {list(self.key_fields)}")
        self._layout = _Layout() if state is None else _Layout(
            base=tuple(state["base"]), applied=dict(state["applied_units"]),
            compactions=state["compactions"])

    def _fold(self, record: Dict) -> None:
        self._layout.deltas.append((record["seq"], record["file"],
                                    record["unit"], record["records"]))
        self._layout.applied[record["unit"]] = record["seq"]

    def _checkpoint(self, base: List[str], compactions: int) -> None:
        self._log.checkpoint({"key": list(self.key_fields), "base": base,
                              "applied_units": self._layout.applied,
                              "compactions": compactions})

    def _synced(self) -> _Layout:
        self._log.refresh()
        return self._layout

    def _write_part(self, path: str, records: List[Dict]) -> None:
        lines = [encode_record(r) for r in records]
        self.dfs.write_atomic_text(path, "\n".join(lines) + "\n"
                                   if lines else "")

    # --------------------------------------------------------------- writes
    def apply(self, unit_id: str, records: Iterable[Dict],
              on_delta_written=None) -> ApplyResult:
        """Land one work unit's records; exactly-once by ``unit_id``.

        The delta file is written first, the log append publishes it.
        ``on_delta_written`` is a chaos hook fired between the two steps
        (the ``mid-land`` crash point of the ingest drill). A re-applied
        unit returns ``applied=False`` without touching storage. Deltas
        are named by seq, so a retry reuses the name: one writer per dataset.
        """
        layout = self._synced()
        if unit_id in layout.applied:
            return ApplyResult(unit_id=unit_id, applied=False,
                               delta_seq=layout.applied[unit_id])
        if not self._log.has_checkpoint:
            self._checkpoint([], 0)   # creating it: the key goes on disk
        records = list(records)
        index = self._synced_index(self._layout)
        new_keys = ({record_key(r, self.key_fields) for r in records}
                    - index.keys)
        seq = self._log.seq + 1
        delta_path = f"{self.root}/delta-{seq:06d}.jsonl"
        self._write_part(delta_path, records)
        if on_delta_written is not None:
            on_delta_written()
        self._log.append({"file": delta_path, "unit": unit_id,
                          "records": len(records)})
        # only now is the delta in the view: a crash above leaves the
        # index at the old log; what was just written is never read back
        index.keys.update(new_keys)
        index.folded += 1
        return ApplyResult(unit_id=unit_id, applied=True,
                           records=len(records), delta_seq=seq,
                           new_keys=len(new_keys))

    # ---------------------------------------------------------------- reads
    def _read_lines(self, path: str) -> List[Dict]:
        return decode_lines(self.dfs.read_text(path))

    def _file_keys(self, path: str) -> List[Tuple]:
        return [record_key(record, self.key_fields)
                for record in self._read_lines(path)]

    def _synced_index(self, layout: _Layout) -> _KeyIndex:
        """The key index brought level with ``layout``: the deltas past
        it, after a rebuild from the base parts when the layout is new.
        A file's keys and its count go in together, so a failed read
        leaves the index behind the log, never ahead of it."""
        index = self._index
        if index is None or index.layout is not layout:
            keys: Set[Tuple] = set()
            for path in layout.base:
                keys.update(self._file_keys(path))
            index = self._index = _KeyIndex(layout, keys=keys)
        for _, path, _, _ in layout.deltas[index.folded:]:
            index.keys.update(self._file_keys(path))
            index.folded += 1
        return index

    def _merged(self, files: Optional[List[str]] = None,
                ) -> Dict[Tuple, Dict]:
        """The merged view of ``files`` (base then deltas, in order;
        by default the live ones)."""
        files = self.live_files() if files is None else files
        return {record_key(record, self.key_fields): record
                for path in files for record in self._read_lines(path)}

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
        return len(self._synced_index(self._synced()).keys)

    def unit_records(self, unit_id: str) -> List[Dict]:
        """The records of exactly one applied unit's delta file; empty
        when the unit never landed or a compaction folded it away."""
        # newest first: callers ask about the unit that just landed
        for _, path, unit, _ in reversed(self._synced().deltas):
            if unit == unit_id:
                return self._read_lines(path)
        return []

    def applied_units(self) -> Dict[str, int]:
        """unit id → delta seq for every unit ever landed (compaction
        preserves this map: exactly-once must survive a compaction that
        races a redelivery)."""
        return dict(self._synced().applied)

    def max_delta_seq(self) -> int:
        """Highest delta sequence ever assigned (the recompute
        watermark); compaction does not rewind it."""
        self._synced()
        return self._log.seq

    def delta_files_since(self, watermark: int) -> List[Tuple[int, str]]:
        """(seq, path) of live delta files with ``seq > watermark``.

        Deltas folded away by a compaction no longer appear; callers
        that might race a compaction should read before compacting.
        """
        return [(seq, path) for seq, path, _, _ in self._synced().deltas
                if seq > watermark]

    def live_files(self) -> List[str]:
        layout = self._synced()
        return list(layout.base) + [path for _, path, _, _ in layout.deltas]

    def duplicate_key_groups(self) -> int:
        """Keys appearing in more than one live file — the quantity the
        chaos drill requires to stay small (upserts are legitimate
        overrides, but a *redelivered* unit must never add one)."""
        seen = Counter(k for path in self.live_files()
                       for k in self._file_keys(path))
        return sum(1 for count in seen.values() if count > 1)

    # ----------------------------------------------------------- maintenance
    def compact(self) -> CompactionStats:
        """Fold base + deltas into a fresh base; checkpoint-last commit.

        The old files are NOT deleted: a reader that listed them may be
        mid-scan (snapshot isolation). They are unreferenced once the
        checkpoint is live, and :meth:`vacuum` — which only touches files
        the *current* layout doesn't own — reclaims them. A crash leaves
        the old dataset or the new one plus garbage, never a broken view.
        """
        layout = self._synced()
        old_files = self.live_files()
        stats = CompactionStats(deltas_folded=len(layout.deltas))
        view: Dict[Tuple, Dict] = {}
        for path in old_files:
            for record in self._read_lines(path):
                view[record_key(record, self.key_fields)] = record
                stats.records_before += 1
        records = [view[k] for k in sorted(view, key=repr)]
        stats.records_after = len(records)
        generation = layout.compactions + 1
        new_base: List[str] = []
        for i in range(0, max(1, len(records)), self.records_per_part):
            path = f"{self.root}/base-{generation:04d}-{len(new_base):05d}.jsonl"
            self._write_part(path, records[i:i + self.records_per_part])
            new_base.append(path)
        self._checkpoint(new_base, generation)
        # the keys did not change; only the files holding them did
        self._index = _KeyIndex(self._layout, keys=set(view))
        stats.files_retired = sum(1 for path in old_files
                                  if self.dfs.exists(path))
        return stats

    def vacuum(self) -> List[str]:
        """Delete data files under the root the layout doesn't own —
        leftovers of crashes between a part write and its publication —
        and the hidden temps of crashes inside one write (the log's
        included); return them."""
        live = set(self.live_files())
        orphans = [path for path in self.dfs.listdir(self.root)
                   if posixpath.dirname(path) == self.root
                   and not posixpath.basename(path).startswith(".")
                   and path not in live]
        for path in orphans:
            self.dfs.delete(path)
        return self.dfs.sweep_temps(self.root) + orphans
