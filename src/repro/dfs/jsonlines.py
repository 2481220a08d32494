"""JSON-lines datasets on the DFS, partitioned into part files.

Crawlers write records through :class:`JsonLinesWriter`; the engine reads
datasets partition-by-partition so each part file becomes one RDD
partition (exactly how Spark maps HDFS splits to partitions).

This module also owns the record codec every landed dataset shares —
:func:`encode_record`, :func:`decode_line`, :func:`decode_lines` — so
the on-disk format has exactly one definition (``tools/check.sh`` greps
for strays).
"""

from __future__ import annotations

import json
from json.encoder import (c_encode_basestring_ascii as _c_encode_str,
                          c_make_encoder as _c_make_encoder)
from typing import Any, Dict, Iterable, Iterator, List, Sequence

from repro.dfs.filesystem import MiniDfs
from repro.util.errors import StorageError


# ------------------------------------------------------------ record codec
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


def _new_c_encoder():
    """What ``JSONEncoder.iterencode`` builds on every call, to be built
    once; ``None`` where the interpreter has no C accelerator. The dict
    is how it detects a circular record: the id of each container it is
    inside, removed again on the way out."""
    if _c_make_encoder is None:
        return None
    return _c_make_encoder(
        {}, _ENCODER.default, _c_encode_str, None, _ENCODER.key_separator,
        _ENCODER.item_separator, True, False, True)


_c_encode = _new_c_encoder()


def encode_record(record: Any) -> str:
    """One record as one line: compact separators, sorted keys,
    ASCII-only (non-ASCII and control characters are ``\\uXXXX``-escaped).

    Byte for byte ``json.dumps(record, separators=(",", ":"),
    sort_keys=True)``, errors included (``ValueError`` for a circular
    record, ``TypeError`` for an unserialisable one), without building
    an encoder per call. ASCII output is what keeps ``str.splitlines()``
    (which also breaks on ``\\x1c``, ``\\x85``, ``\\u2028`` …) and byte
    offsets in step: an encoded line contains no line boundary and one
    byte per character.
    """
    global _c_encode
    encode = _c_encode
    if encode is None:
        return _ENCODER.encode(record)
    try:
        return "".join(encode(record, 0))
    except BaseException:
        # it raised from inside some containers and still has them
        # marked; retire it (a thread mid-encode keeps its own)
        _c_encode = _new_c_encoder()
        raise


# the C scanner ``json.loads`` itself ends up in, minus the Python
# ``loads -> decode -> raw_decode`` wrapper and its two whitespace
# regexes; shared across threads exactly as ``json``'s default decoder is
_scan_once = json.JSONDecoder().scan_once


def decode_line(line: str) -> Any:
    """``json.loads(line)`` for one line of text, faster on the common case.

    The scanner's value is accepted only when it consumed the whole
    line. Anything else — leading or trailing whitespace, trailing
    data, no value at all — is handed to ``json.loads``, so every
    result and every ``JSONDecodeError`` is the standard library's.
    """
    try:
        value, end = _scan_once(line, 0)
    except StopIteration:
        return json.loads(line)
    if end != len(line):
        return json.loads(line)
    return value


def decode_lines(text: str) -> List[Any]:
    """Every non-empty line of ``text`` decoded, in order."""
    return [decode_line(line) for line in text.splitlines() if line]


def _part_path(directory: str, index: int) -> str:
    return f"{directory.rstrip('/')}/part-{index:05d}.jsonl"


class JsonLinesWriter:
    """Buffers records and flushes them as numbered part files.

    Use as a context manager::

        with JsonLinesWriter(dfs, "/crawl/startups", records_per_part=5000) as w:
            for record in crawl():
                w.write(record)
    """

    def __init__(self, dfs: MiniDfs, directory: str,
                 records_per_part: int = 10_000,
                 start_part_index: int = 0):
        if records_per_part < 1:
            raise StorageError("records_per_part must be >= 1")
        if start_part_index < 0:
            raise StorageError("start_part_index must be >= 0")
        self._dfs = dfs
        self._directory = directory.rstrip("/")
        self._records_per_part = records_per_part
        self._buffer: List[str] = []
        self._part_index = start_part_index
        self.records_written = 0
        self._closed = False

    @property
    def next_part_index(self) -> int:
        """The index the next flushed part file will get (for resume)."""
        return self._part_index

    def write(self, record: Dict) -> None:
        if self._closed:
            raise StorageError("writer is closed")
        self._buffer.append(encode_record(record))
        self.records_written += 1
        if len(self._buffer) >= self._records_per_part:
            self._flush()

    def write_all(self, records: Iterable[Dict]) -> None:
        for record in records:
            self.write(record)

    def _flush(self) -> None:
        if not self._buffer:
            return
        path = _part_path(self._directory, self._part_index)
        # temp-write + rename: a crash mid-flush never leaves a torn (or
        # half-visible) part file, and a resumed crawl that re-flushes
        # the same index atomically replaces the stale part.
        self._dfs.write_atomic_text(path, "\n".join(self._buffer) + "\n")
        self._part_index += 1
        self._buffer = []

    def flush(self) -> None:
        """Force buffered records onto the DFS (checkpoint boundary)."""
        self._flush()

    def close(self) -> None:
        if not self._closed:
            self._flush()
            self._closed = True

    def __enter__(self) -> "JsonLinesWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def write_json_dataset(dfs: MiniDfs, directory: str,
                       records: Sequence[Dict],
                       partitions: int = 4) -> int:
    """Write ``records`` split evenly into ``partitions`` part files."""
    if partitions < 1:
        raise StorageError("partitions must be >= 1")
    per_part = max(1, -(-len(records) // partitions))
    with JsonLinesWriter(dfs, directory, records_per_part=per_part) as writer:
        writer.write_all(records)
    return writer.records_written


def list_partitions(dfs: MiniDfs, directory: str) -> List[str]:
    """Part-file paths of a dataset directory (the engine's input splits)."""
    return dfs.glob_parts(directory)


def iter_json_dataset(dfs: MiniDfs, directory: str) -> Iterator[Dict]:
    """Stream every record of a dataset in partition order."""
    for path in list_partitions(dfs, directory):
        for line in dfs.read_text(path).splitlines():
            if line:
                yield decode_line(line)


def read_json_dataset(dfs: MiniDfs, directory: str) -> List[Dict]:
    """Materialize a dataset as a list of records."""
    return list(iter_json_dataset(dfs, directory))


# --------------------------------------------------------- pushdown scans
class ScanCounters:
    """Mutable accounting for a pushed-down scan (one part file)."""

    __slots__ = ("bytes_skipped", "fields_pruned", "rows_read", "rows_kept")

    def __init__(self):
        self.bytes_skipped = 0
        self.fields_pruned = 0
        self.rows_read = 0
        self.rows_kept = 0


def read_part_pushdown(dfs: MiniDfs, path: str,
                       ops: Sequence) -> tuple:
    """One part file with filter/map ops evaluated per decoded line.

    ``ops`` is the fused chain in lineage order: ``("filter", fn)``
    drops a record (and counts the line's on-disk bytes, newline
    included, as skipped) the moment ``fn`` rejects it — later ops never
    see it, exactly like the unfused narrow stages; ``("map", fn)``
    rewrites the record in place, counting dict fields a projection
    removed. Returns ``(records, bytes_skipped, fields_pruned)`` with
    ``records`` byte-identical to running the unfused chain over a full
    :meth:`~repro.engine.context.SparkLiteContext.json_dataset` scan.
    """
    out: List = []
    bytes_skipped = 0
    fields_pruned = 0
    for line in dfs.read_text(path).splitlines():
        if not line:
            continue
        record = decode_line(line)
        dropped = False
        for kind, fn in ops:
            if kind == "filter":
                if not fn(record):
                    dropped = True
                    bytes_skipped += len(line) + 1
                    break
            else:
                new = fn(record)
                if isinstance(record, dict) and isinstance(new, dict):
                    fields_pruned += max(0, len(record) - len(new))
                record = new
        if not dropped:
            out.append(record)
    return out, bytes_skipped, fields_pruned


# ----------------------------------------------------- batch-native scans
def read_part_batches(dfs: MiniDfs, path: str, batch_rows: int,
                      predicate=None, projection=None,
                      counters: ScanCounters = None) -> List:
    """One part file as :class:`~repro.engine.columnar.RecordBatch`es.

    Records decode straight into batches of at most ``batch_rows`` rows
    — the columnar engine's scan entry point
    (``SparkLiteContext.json_batches``). Imported lazily so the storage
    layer stays importable without the engine package.

    Explicit pushdown: ``predicate`` filters records during the read
    (dropped lines never reach a batch; their on-disk bytes count into
    ``counters.bytes_skipped``); ``projection`` is either a per-record
    callable applied pre-batch or a sequence of field names pruned
    *columnarly* — whole columns dropped from each built batch via
    :func:`~repro.engine.columnar.project_batch`, with the cut cells
    counted into ``counters.fields_pruned``.
    """
    from repro.engine.columnar import RecordBatch, project_batch
    if batch_rows < 1:
        raise StorageError("batch_rows must be >= 1")
    records = []
    for line in dfs.read_text(path).splitlines():
        if not line:
            continue
        record = decode_line(line)
        if counters is not None:
            counters.rows_read += 1
        if predicate is not None and not predicate(record):
            if counters is not None:
                counters.bytes_skipped += len(line) + 1
            continue
        if projection is not None and callable(projection):
            new = projection(record)
            if (counters is not None and isinstance(record, dict)
                    and isinstance(new, dict)):
                counters.fields_pruned += max(0, len(record) - len(new))
            record = new
        if counters is not None:
            counters.rows_kept += 1
        records.append(record)
    batches = [RecordBatch.from_records(records[start:start + batch_rows])
               for start in range(0, len(records), batch_rows)] or \
        [RecordBatch.from_records([])]
    if projection is not None and not callable(projection):
        keys = tuple(projection)
        projected = []
        for batch in batches:
            pruned_batch, cells_cut = project_batch(batch, keys)
            projected.append(pruned_batch)
            if counters is not None:
                counters.fields_pruned += cells_cut
        batches = projected
    return batches
