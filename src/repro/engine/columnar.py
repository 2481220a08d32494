"""Columnar record batches and the shared-memory shuffle blocks.

The engine's hot path used to move rows as per-row Python objects: a
shuffle pickled a ``list`` of tuples per (map-partition, reduce-bucket)
and a narrow stage called the user's function row by row over whatever
heap layout the previous stage left behind. This module is the columnar
replacement, stdlib only:

* :class:`RecordBatch` — a batch of rows decomposed into typed columns.
  ``pack()`` serializes the batch into one contiguous ``bytes`` buffer:
  fixed-width columns as ``array('q')``/``array('d')`` dumps, booleans
  and null masks as bitmaps, strings/bytes as an offsets array over a
  varlen heap, and anything irregular (mixed types, nesting, big ints)
  as a pickled OBJECT column. ``unpack()`` reverses it exactly — the
  round-trip preserves concrete Python types (``bool`` never collapses
  into ``int``, ``1`` and ``1.0`` stay distinct), which is what keeps
  the columnar engine byte-identical to the row oracle.
* :class:`BatchBlock` — the sealed exchange payload built on top:
  batch-encoded (or pickled when the rows are irregular), optionally
  zlib-compressed, and optionally *shared-memory backed* so the process
  backend moves a tiny descriptor across the pickle wall instead of the
  data itself.
* segment bookkeeping — job-scoped shm name prefixes, a
  :class:`ShmRegistry` the job runner tracks returned segments in, and
  a ``/dev/shm`` prefix sweep that also reclaims segments created by
  workers that died before their descriptor reached the driver.

Shared-memory lifetime: a worker creates a segment at seal time and
closes its mapping immediately; reducers (and retried or speculative
reducers — a block may be read several times) attach, copy, and close;
the *driver* unlinks every segment at job end. CPython registers a
segment with the multiprocessing resource tracker on create *and* on
attach (the tracker's name set is shared across the process tree and
registration is idempotent), and ``unlink()`` unregisters — so the
single driver-side unlink leaves the tracker balanced with no spurious
"leaked shared_memory" warnings at interpreter shutdown.
"""

from __future__ import annotations

import itertools
import os
import pickle
import struct
import zlib
from array import array
from multiprocessing import shared_memory
from typing import Any, Iterable, List, Optional, Sequence, Tuple

__all__ = ["RecordBatch", "BatchBlock", "ShmRegistry",
           "shm_available", "new_job_prefix", "list_segments",
           "release_segments", "encode_rows", "decode_rows",
           "batch_to_rows", "project_batch",
           "SHM_BASE_PREFIX", "DEFAULT_BATCH_ROWS"]

#: rows per batch for batched narrow ops / per-batch combiners
DEFAULT_BATCH_ROWS = 4096

# ------------------------------------------------------------- batch layout
#: how a row maps onto columns
MODE_SCALAR = 0   # one column of bare values
MODE_TUPLE = 1    # fixed-width tuples, one column per slot
MODE_DICT = 2     # same-keyed dicts, one column per key

#: column physical types
TAG_INT64 = 0     # array('q') dump; ints outside int64 fall back to OBJ
TAG_FLOAT64 = 1   # array('d') dump
TAG_BOOL = 2      # bitmap
TAG_STRING = 3    # offsets + utf-8 (surrogatepass) heap
TAG_BYTES = 4     # offsets + raw heap
TAG_OBJECT = 5    # pickled value list — the always-correct fallback

_MAGIC = b"RB1\x00"
_HEADER = struct.Struct("<4sBIH")   # magic, mode, nrows, ncols
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_COL = struct.Struct("<BB")          # tag, flags (bit0 = has nulls)
_FLAG_NULLS = 1

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

# array typecode sanity: the layout assumes 8-byte 'q'/'d' items; on an
# exotic libc where that does not hold, ints/floats fall back to OBJECT
_FIXED_OK = array("q").itemsize == 8 and array("d").itemsize == 8


def _pack_bits(flags: Sequence[bool]) -> bytes:
    out = bytearray((len(flags) + 7) // 8)
    for i, flag in enumerate(flags):
        if flag:
            out[i >> 3] |= 1 << (i & 7)
    return bytes(out)


def _unpack_bits(buf, n: int) -> List[bool]:
    return [bool(buf[i >> 3] & (1 << (i & 7))) for i in range(n)]


def _infer_tag(values: Sequence[Any]) -> Tuple[int, bool]:
    """Pick one physical tag for a column; mixed columns become OBJECT.

    Exact ``type()`` checks on purpose: ``isinstance(True, int)`` holds
    but a bool stored through ``array('q')`` would come back as ``1``,
    breaking byte-identity with the row oracle.
    """
    tag = None
    has_null = False
    for v in values:
        if v is None:
            has_null = True
            continue
        t = type(v)
        if t is int:
            if not _FIXED_OK or not _INT64_MIN <= v <= _INT64_MAX:
                return TAG_OBJECT, has_null
            vt = TAG_INT64
        elif t is float:
            vt = TAG_FLOAT64 if _FIXED_OK else TAG_OBJECT
        elif t is bool:
            vt = TAG_BOOL
        elif t is str:
            vt = TAG_STRING
        elif t is bytes:
            vt = TAG_BYTES
        else:
            return TAG_OBJECT, has_null
        if tag is None:
            tag = vt
        elif tag is not vt and tag != vt:
            return TAG_OBJECT, has_null
    if tag is None:          # empty or all-None column
        tag = TAG_OBJECT
    return tag, has_null


class RecordBatch:
    """A batch of rows stored column-wise, packable to one buffer."""

    __slots__ = ("mode", "keys", "columns", "nrows")

    def __init__(self, mode: int, keys: Optional[Tuple[str, ...]],
                 columns: List[List[Any]], nrows: int):
        self.mode = mode
        self.keys = keys
        self.columns = columns
        self.nrows = nrows

    # ------------------------------------------------------------ building
    @classmethod
    def from_rows(cls, rows: Sequence[Any]) -> "RecordBatch":
        """Decompose rows into columns.

        Uniform-width tuples split one column per slot (the shuffle's
        ``(key, value)`` pairs), same-keyed dicts one column per key
        (JSON records); anything else is a single scalar column whose
        irregular values will pack as OBJECT.
        """
        rows = rows if isinstance(rows, list) else list(rows)
        n = len(rows)
        if n and all(type(r) is tuple for r in rows):
            width = len(rows[0])
            if width and all(len(r) == width for r in rows):
                return cls(MODE_TUPLE, None,
                           [list(col) for col in zip(*rows)], n)
        if n and all(type(r) is dict for r in rows):
            keys = tuple(rows[0])
            if keys and all(tuple(r) == keys for r in rows):
                return cls(MODE_DICT, keys,
                           [[r[k] for r in rows] for k in keys], n)
        return cls(MODE_SCALAR, None, [list(rows)], n)

    @classmethod
    def from_records(cls, records: Sequence[dict]) -> "RecordBatch":
        """``from_rows`` for dict records — the dataset-scan entry point."""
        return cls.from_rows(records)

    # ------------------------------------------------------------- reading
    def to_rows(self) -> List[Any]:
        if self.mode == MODE_SCALAR:
            return list(self.columns[0])
        if not self.nrows:
            return []
        if self.mode == MODE_TUPLE:
            return list(zip(*self.columns))
        keys = self.keys
        return [dict(zip(keys, vals)) for vals in zip(*self.columns)]

    def to_records(self) -> List[dict]:
        return self.to_rows()

    def column(self, index: int) -> List[Any]:
        return self.columns[index]

    def column_tags(self) -> List[int]:
        return [_infer_tag(col)[0] for col in self.columns]

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    def __len__(self) -> int:
        return self.nrows

    def __eq__(self, other: Any) -> bool:
        return (isinstance(other, RecordBatch)
                and self.mode == other.mode
                and self.keys == other.keys
                and self.nrows == other.nrows
                and self.columns == other.columns)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mode = {MODE_SCALAR: "scalar", MODE_TUPLE: "tuple",
                MODE_DICT: "dict"}[self.mode]
        return (f"<RecordBatch {mode} rows={self.nrows} "
                f"cols={len(self.columns)}>")

    # ------------------------------------------------------------- slicing
    def slice(self, start: int, stop: Optional[int] = None) -> "RecordBatch":
        stop = self.nrows if stop is None else min(stop, self.nrows)
        start = max(0, start)
        cols = [col[start:stop] for col in self.columns]
        return RecordBatch(self.mode, self.keys, cols,
                           max(0, stop - start))

    @classmethod
    def concat(cls, batches: Iterable["RecordBatch"]) -> "RecordBatch":
        batches = list(batches)
        if not batches:
            return cls.from_rows([])
        first = batches[0]
        if all(b.mode == first.mode and b.keys == first.keys
               and len(b.columns) == len(first.columns)
               for b in batches[1:]):
            cols = [list(itertools.chain.from_iterable(
                b.columns[i] for b in batches))
                for i in range(len(first.columns))]
            return cls(first.mode, first.keys, cols,
                       sum(b.nrows for b in batches))
        rows: List[Any] = []
        for b in batches:
            rows.extend(b.to_rows())
        return cls.from_rows(rows)

    # ----------------------------------------------------------- pack/unpack
    def pack(self) -> bytes:
        """Serialize to one contiguous buffer (layout documented above)."""
        n = self.nrows
        out = bytearray(_HEADER.pack(_MAGIC, self.mode, n,
                                     len(self.columns)))
        if self.mode == MODE_DICT:
            key_blob = pickle.dumps(self.keys,
                                    protocol=pickle.HIGHEST_PROTOCOL)
            out += _U32.pack(len(key_blob))
            out += key_blob
        for values in self.columns:
            tag, has_null = _infer_tag(values)
            if tag == TAG_OBJECT:
                blob = pickle.dumps(list(values),
                                    protocol=pickle.HIGHEST_PROTOCOL)
                out += _COL.pack(TAG_OBJECT, 0)
                out += _U64.pack(len(blob))
                out += blob
                continue
            out += _COL.pack(tag, _FLAG_NULLS if has_null else 0)
            if has_null:
                out += _pack_bits([v is not None for v in values])
            if tag == TAG_INT64:
                out += array("q", [0 if v is None else v
                                   for v in values]).tobytes()
            elif tag == TAG_FLOAT64:
                out += array("d", [0.0 if v is None else v
                                   for v in values]).tobytes()
            elif tag == TAG_BOOL:
                out += _pack_bits([bool(v) for v in values])
            else:  # TAG_STRING / TAG_BYTES: offsets + heap
                heap = bytearray()
                offsets = array("Q", bytes(8 * (n + 1)))
                pos = 0
                for i, v in enumerate(values):
                    if v is not None:
                        piece = (v.encode("utf-8", "surrogatepass")
                                 if tag == TAG_STRING else v)
                        heap += piece
                        pos += len(piece)
                    offsets[i + 1] = pos
                out += offsets.tobytes()
                out += bytes(heap)
        return bytes(out)

    @classmethod
    def unpack(cls, data) -> "RecordBatch":
        view = memoryview(data)
        magic, mode, n, ncols = _HEADER.unpack_from(view, 0)
        if magic != _MAGIC:
            raise ValueError("not a RecordBatch buffer")
        pos = _HEADER.size
        keys = None
        if mode == MODE_DICT:
            (key_len,) = _U32.unpack_from(view, pos)
            pos += _U32.size
            keys = pickle.loads(view[pos:pos + key_len])
            pos += key_len
        columns: List[List[Any]] = []
        null_len = (n + 7) // 8
        for _ in range(ncols):
            tag, flags = _COL.unpack_from(view, pos)
            pos += _COL.size
            if tag == TAG_OBJECT:
                (blob_len,) = _U64.unpack_from(view, pos)
                pos += _U64.size
                columns.append(pickle.loads(view[pos:pos + blob_len]))
                pos += blob_len
                continue
            valid = None
            if flags & _FLAG_NULLS:
                valid = _unpack_bits(view[pos:pos + null_len], n)
                pos += null_len
            if tag == TAG_INT64:
                arr = array("q")
                arr.frombytes(view[pos:pos + 8 * n])
                pos += 8 * n
                values: List[Any] = arr.tolist()
            elif tag == TAG_FLOAT64:
                arr = array("d")
                arr.frombytes(view[pos:pos + 8 * n])
                pos += 8 * n
                values = arr.tolist()
            elif tag == TAG_BOOL:
                values = _unpack_bits(view[pos:pos + null_len], n)
                pos += null_len
            else:
                offsets = array("Q")
                offsets.frombytes(view[pos:pos + 8 * (n + 1)])
                pos += 8 * (n + 1)
                heap = view[pos:pos + (offsets[-1] if n else 0)]
                pos += offsets[-1] if n else 0
                if tag == TAG_STRING:
                    values = [str(heap[offsets[i]:offsets[i + 1]],
                                  "utf-8", "surrogatepass")
                              for i in range(n)]
                else:
                    values = [bytes(heap[offsets[i]:offsets[i + 1]])
                              for i in range(n)]
            if valid is not None:
                values = [v if ok else None
                          for v, ok in zip(values, valid)]
            columns.append(values)
        return cls(mode, keys, columns, n)


def batch_to_rows(batch: "RecordBatch") -> List[Any]:
    """Module-level (picklable) adapter for ``rdd.flat_map`` over
    batch-native scans: one batch in, its rows out."""
    return batch.to_rows()


def project_batch(batch: "RecordBatch",
                  keys: Sequence[str]) -> Tuple["RecordBatch", int]:
    """Columnar projection: keep only ``keys``, in the requested order.

    For a dict-mode batch this drops whole columns without touching a
    single row — the batch-native half of the scan-pushdown contract.
    Batches whose rows were too irregular for dict columns fall back to
    a row-wise rebuild with identical results. Returns ``(projected,
    cells_cut)`` where ``cells_cut`` counts the dropped fields (columns
    removed x rows), and raises ``KeyError`` for a requested key the
    records lack — the same error the row-wise ``{k: r[k] ...}``
    projection would raise.
    """
    keys = tuple(keys)
    if batch.mode == MODE_DICT and batch.keys is not None:
        index = {k: i for i, k in enumerate(batch.keys)}
        for k in keys:
            if k not in index:
                raise KeyError(k)
        columns = [batch.columns[index[k]] for k in keys]
        cells_cut = (len(batch.keys) - len(keys)) * batch.nrows
        return RecordBatch(MODE_DICT, keys, columns, batch.nrows), cells_cut
    rows = batch.to_rows()
    cells_cut = 0
    projected = []
    for row in rows:
        new = {k: row[k] for k in keys}
        cells_cut += max(0, len(row) - len(new))
        projected.append(new)
    return RecordBatch.from_rows(projected), cells_cut


# ------------------------------------------------------- row codec for spill
def encode_rows(rows: List[Any]) -> bytes:
    """Tagged row encoding for cache/checkpoint spill: ``b"B"`` + packed
    batch when the rows have columnar structure, ``b"P"`` + pickle when
    they would only pack as one OBJECT column (a pickle wrapped in a
    batch header buys nothing)."""
    batch = RecordBatch.from_rows(rows)
    if batch.mode == MODE_SCALAR and batch.column_tags() == [TAG_OBJECT]:
        return b"P" + pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL)
    return b"B" + batch.pack()


def decode_rows(blob: bytes) -> List[Any]:
    if blob[:1] == b"B":
        return RecordBatch.unpack(memoryview(blob)[1:]).to_rows()
    return pickle.loads(blob[1:])


# ------------------------------------------------------------ shm plumbing
#: every segment the engine creates starts with this — the sweep target
SHM_BASE_PREFIX = "rpshm"
_SHM_DIR = "/dev/shm"

_job_serials = itertools.count(1)
_segment_serials = itertools.count(1)

_shm_probe: Optional[bool] = None


def shm_available() -> bool:
    """One cached probe: can this platform create shared memory at all?"""
    global _shm_probe
    if _shm_probe is None:
        try:
            seg = shared_memory.SharedMemory(create=True, size=1)
            seg.close()
            seg.unlink()
            _shm_probe = True
        except OSError:
            _shm_probe = False
    return _shm_probe


def new_job_prefix() -> str:
    """A job-scoped segment name prefix, unique per driver process.

    Short on purpose: POSIX shm names cap at 31 chars on macOS, and the
    full segment name appends worker pid + a per-process serial."""
    return f"{SHM_BASE_PREFIX}{os.getpid():x}j{next(_job_serials):x}"


def _next_segment_name(prefix: str) -> str:
    return f"{prefix}w{os.getpid():x}c{next(_segment_serials):x}"


def list_segments(prefix: str = SHM_BASE_PREFIX) -> List[str]:
    """Engine-owned segments currently live, by ``/dev/shm`` listing.

    Empty on platforms without a visible shm filesystem — there the
    registry of returned names is the only cleanup source."""
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:
        return []
    return sorted(name for name in names if name.startswith(prefix))


def _unlink_segment(name: str) -> int:
    try:
        seg = shared_memory.SharedMemory(name=name)
    except (FileNotFoundError, OSError):
        return 0
    try:
        seg.close()
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover - lost a race
        return 0
    return 1


def release_segments(prefix: Optional[str] = None,
                     names: Iterable[str] = ()) -> int:
    """Unlink tracked segments plus anything left under ``prefix``.

    The prefix sweep is what reclaims segments whose descriptors never
    made it back to the driver — a worker killed between sealing and
    returning, or a speculative attempt whose result lost the race.
    Returns how many segments were actually unlinked."""
    released = 0
    for name in set(names):
        released += _unlink_segment(name)
    if prefix:
        for name in list_segments(prefix):
            released += _unlink_segment(name)
    return released


class ShmRegistry:
    """Driver-side ledger of one job's shared-memory segments."""

    __slots__ = ("prefix", "names")

    def __init__(self, prefix: Optional[str] = None):
        self.prefix = prefix if prefix is not None else new_job_prefix()
        self.names: set = set()

    def track(self, name: Optional[str]) -> None:
        if name:
            self.names.add(name)

    def release(self) -> int:
        """Unlink everything this job created; idempotent."""
        released = release_segments(self.prefix, self.names)
        self.names.clear()
        return released

    def __len__(self) -> int:
        return len(self.names)


# ------------------------------------------------------------ sealed blocks
class BatchBlock:
    """One sealed exchange payload, columnar and optionally shm-backed.

    The pickled form of a ``BatchBlock`` whose payload lives in shared
    memory is just the descriptor — name, size, codec — so on the
    process backend the exchange data crosses the worker→driver and
    driver→reducer pickle walls by reference. ``payload`` carries the
    bytes inline when shm is off or segment creation failed (the
    fallback keeps results identical, only slower).
    """

    ENC_BATCH = 0    # payload is RecordBatch.pack() output
    ENC_PICKLE = 1   # irregular rows: payload is a pickled row list
    CODEC_RAW = 0
    CODEC_ZLIB = 1

    __slots__ = ("payload", "shm_name", "shm_size", "count", "raw_bytes",
                 "codec", "encoding", "header_bytes")

    def __init__(self, payload: Optional[bytes], shm_name: Optional[str],
                 shm_size: int, count: int, raw_bytes: int, codec: int,
                 encoding: int, header_bytes: int = 0):
        self.payload = payload
        self.shm_name = shm_name
        self.shm_size = shm_size
        self.count = count
        self.raw_bytes = raw_bytes
        self.codec = codec
        self.encoding = encoding
        self.header_bytes = header_bytes

    @classmethod
    def seal(cls, items: List[Any], compress: bool = False,
             threshold: int = 4096,
             shm_prefix: Optional[str] = None) -> "BatchBlock":
        batch = RecordBatch.from_rows(items)
        if (batch.mode == MODE_SCALAR
                and batch.column_tags() == [TAG_OBJECT]):
            encoding = cls.ENC_PICKLE
            raw = pickle.dumps(items, protocol=pickle.HIGHEST_PROTOCOL)
        else:
            encoding = cls.ENC_BATCH
            raw = batch.pack()
        payload, codec = raw, cls.CODEC_RAW
        if compress and len(raw) >= threshold:
            squeezed = zlib.compress(raw, 6)
            if len(squeezed) < len(raw):
                payload, codec = squeezed, cls.CODEC_ZLIB
        block = cls(payload, None, 0, len(items), len(raw), codec,
                    encoding)
        if shm_prefix:
            try:
                seg = shared_memory.SharedMemory(
                    name=_next_segment_name(shm_prefix), create=True,
                    size=max(1, len(payload)))
            except OSError:
                pass  # no shm here: ship the payload inline instead
            else:
                seg.buf[:len(payload)] = payload
                block.shm_name = seg.name
                block.shm_size = len(payload)
                block.payload = None
                seg.close()
        block.header_bytes = block._measure_header()
        return block

    def _measure_header(self) -> int:
        """Size of the pickled envelope around the data — what crossing
        a pickle wall costs beyond the payload itself."""
        payload, self.payload = self.payload, b""
        try:
            return len(pickle.dumps(self,
                                    protocol=pickle.HIGHEST_PROTOCOL))
        finally:
            self.payload = payload

    def decode(self) -> List[Any]:
        if self.shm_name is not None:
            seg = shared_memory.SharedMemory(name=self.shm_name)
            try:
                data: Any = bytes(seg.buf[:self.shm_size])
            finally:
                seg.close()
        else:
            data = self.payload
        if self.codec == self.CODEC_ZLIB:
            data = zlib.decompress(data)
        if self.encoding == self.ENC_BATCH:
            return RecordBatch.unpack(data).to_rows()
        return pickle.loads(data)

    # ----------------------------------------------------------- accounting
    @property
    def via_shm(self) -> bool:
        return self.shm_name is not None

    @property
    def shm_bytes(self) -> int:
        return self.shm_size if self.shm_name is not None else 0

    @property
    def nbytes(self) -> int:
        data = (self.shm_size if self.shm_name is not None
                else len(self.payload or b""))
        return data + self.header_bytes

    @property
    def pickled_nbytes(self) -> int:
        """Bytes that actually cross a pickle wall: the envelope always,
        the data only when it is not shm-backed."""
        return self.nbytes - self.shm_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        where = f"shm:{self.shm_name}" if self.via_shm else "inline"
        codec = "zlib" if self.codec == self.CODEC_ZLIB else "raw"
        return (f"<BatchBlock {self.count} recs "
                f"{self.nbytes}/{self.raw_bytes}B {codec} {where}>")
