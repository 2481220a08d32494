"""The shuffle fast path: partitioners, map-side combine, sized blocks.

A wide dependency moves data in two halves. The *map* half
(:class:`MapShuffleTask`) runs once per parent partition: it splits the
partition into per-reduce-bucket lists, optionally **pre-aggregates**
each list with the stage's combiner (Spark's map-side combine — the
reason a skewed ``reduce_by_key`` ships hundreds of records instead of
millions), and optionally **seals** each list into a
:class:`ShuffleBlock` — one pickle per (map-partition, reduce-bucket),
zlib-compressed above a size threshold. The *reduce* half
(:class:`ReduceShuffleTask`) runs once per reduce bucket: it decodes
the blocks addressed to it, concatenates them in map-partition order
(which keeps every backend byte-deterministic) and applies the stage's
post operator.

Blocks matter on the process backend: the exchange payload is
serialized exactly once, on the worker that produced it, and crosses
the two remaining pickle walls (worker→driver, driver→reducer) as an
opaque ``bytes`` object instead of being re-pickled as a list of raw
records each hop.

The deterministic key hashing (`_canonical_bytes` / `_stable_hash` /
`_hash_partition`) lives here too; :mod:`repro.engine.rdd` re-exports
it unchanged — CRC32 bucket placement is frozen by regression tests.
:func:`scatter` is the one loop that applies it: a placement is computed
once per distinct key per map chunk, never once per record.
"""

from __future__ import annotations

import bisect
import pickle
import zlib
from typing import Any, Callable, List, Optional

from repro.engine.columnar import BatchBlock

#: compress a block only when its pickle is at least this large (bytes)
DEFAULT_COMPRESS_THRESHOLD = 4096

#: sample keys taken per parent partition when planning a range sort
RANGE_SAMPLES_PER_PARTITION = 20

#: what ``pickle.dumps`` raises for an object it cannot serialize
PICKLING_ERRORS = (pickle.PicklingError, TypeError, AttributeError,
                   RecursionError)


def stride_sample(seq: List[Any], k: int) -> List[Any]:
    """At most ``k`` elements taken at a fixed stride — no RNG, so the
    sample is a pure function of the sequence. The adaptive planner's
    size estimates (:mod:`repro.engine.planner`) sample through this —
    the same idiom :func:`plan_range_partitioner` uses for its cut
    points — which is what keeps retries, speculation and backend
    choice from ever perturbing a data-dependent plan."""
    if not seq:
        return []
    stride = max(1, len(seq) // max(1, k))
    return seq[::stride][:k]


# --------------------------------------------------------------------- hashing
def _canonical_bytes(key: Any) -> bytes:
    """Deterministic, type-tagged encoding: equal keys → equal bytes.

    Builtin ``hash`` is salted per interpreter for strings
    (``PYTHONHASHSEED``), which would make shuffle placement differ
    between runs — and between the driver and a process-pool worker.
    Numeric cross-type equality (``1 == 1.0 == True``) is normalized so
    equal keys always land in the same bucket.
    """
    if key is None:
        return b"N"
    if isinstance(key, bool):
        key = int(key)
    if isinstance(key, float) and key.is_integer():
        key = int(key)      # exact for every finite integral float
    if isinstance(key, int):
        return b"i" + str(key).encode("ascii")
    if isinstance(key, float):
        return b"f" + repr(key).encode("ascii")
    if isinstance(key, str):
        return b"s" + key.encode("utf-8", "surrogatepass")
    if isinstance(key, bytes):
        return b"b" + key
    if isinstance(key, tuple):
        parts = [_canonical_bytes(item) for item in key]
        return b"t" + b"".join(
            str(len(p)).encode("ascii") + b":" + p for p in parts)
    if isinstance(key, frozenset):
        total = sum(zlib.crc32(_canonical_bytes(item))
                    for item in key) & 0xFFFFFFFF
        return b"z" + str(total).encode("ascii")
    # last resort: types with a deterministic repr (dataclasses, enums)
    return b"r" + repr(key).encode("utf-8", "surrogatepass")


def _stable_hash(key: Any) -> int:
    return zlib.crc32(_canonical_bytes(key))


def _hash_partition(key: Any, num_partitions: int) -> int:
    return _stable_hash(key) % num_partitions


# ---------------------------------------------------------------- partitioners
class HashPartitioner:
    """CRC32 bucket placement over a key function — the default."""

    __slots__ = ("key_fn", "num_buckets")

    def __init__(self, key_fn: Callable[[Any], Any], num_buckets: int):
        self.key_fn = key_fn
        self.num_buckets = num_buckets

    def __call__(self, item: Any) -> int:
        return _hash_partition(self.key_fn(item), self.num_buckets)


class RangePartitioner:
    """Key-range bucket placement from sampled cut points.

    Ascending, ``cuts = [c0 <= c1 <= ...]`` sends a key to the first
    bucket whose cut is ``> key`` (``bisect_right``); descending
    mirrors the index so partition 0 holds the largest keys. Equal keys
    always share a bucket, which is what keeps a range sort stable.
    """

    __slots__ = ("key_fn", "cuts", "descending")

    def __init__(self, key_fn: Callable[[Any], Any], cuts: List[Any],
                 descending: bool = False):
        self.key_fn = key_fn
        self.cuts = cuts
        self.descending = descending

    def __call__(self, item: Any) -> int:
        index = bisect.bisect_right(self.cuts, self.key_fn(item))
        return len(self.cuts) - index if self.descending else index


def scatter(items: List[Any], partitioner: Optional[Callable[[Any], int]],
            buckets: List[List[Any]], offset: int = 0) -> None:
    """Append every item to its bucket's list, in arrival order.

    The exchange's inner loop, so the two built-in partitioners are
    resolved here instead of being called once per item; placement is
    exactly their ``__call__``'s. A hash placement is computed once per
    distinct key of *this call*: the memo is a local that dies with it.
    Only keys whose exact class is ``int`` or ``str`` go through the
    memo, because only for those is dict equality the same relation as
    canonical-bytes equality (``Decimal(1) == 1`` and ``True == 1``, but
    neither may answer for — or be answered by — the other's entry).
    ``partitioner`` of ``None`` round-robins by ``offset`` + position.
    """
    n = len(buckets)
    appends = [bucket.append for bucket in buckets]
    if partitioner is None:
        for i, item in enumerate(items, offset):
            appends[i % n](item)
    elif type(partitioner) is HashPartitioner:
        key_fn = partitioner.key_fn
        crc32 = zlib.crc32
        memo: dict = {}
        lookup = memo.get
        for item in items:
            key = key_fn(item)
            cls = type(key)
            if cls is int or cls is str:
                b = lookup(key)
                if b is None:
                    b = memo[key] = (crc32(b"i%d" % key) % n if cls is int
                                     else _hash_partition(key, n))
            else:
                b = _hash_partition(key, n)
            appends[b](item)
    elif type(partitioner) is RangePartitioner:
        key_fn, cuts = partitioner.key_fn, partitioner.cuts
        if partitioner.descending:
            appends = appends[len(cuts)::-1]
        bisect_right = bisect.bisect_right
        for item in items:
            appends[bisect_right(cuts, key_fn(item))](item)
    else:
        for item in items:
            appends[partitioner(item)](item)


def plan_range_partitioner(parts: List[List[Any]], num_buckets: int,
                           key_fn: Callable[[Any], Any],
                           ascending: bool = True,
                           samples_per_partition: int =
                           RANGE_SAMPLES_PER_PARTITION) -> RangePartitioner:
    """Sample keys from materialized parent partitions → cut points.

    Sampling strides deterministically through each partition (no RNG:
    same data, same cuts, every backend). Duplicate cut points are
    collapsed, so heavily repeated keys yield fewer, wider buckets
    rather than empty ones in the middle.
    """
    sample: List[Any] = []
    for part in parts:
        if not part:
            continue
        stride = max(1, len(part) // samples_per_partition)
        sample.extend(key_fn(item) for item in part[::stride])
    if not sample or num_buckets <= 1:
        return RangePartitioner(key_fn, [], descending=not ascending)
    sample.sort()
    cuts: List[Any] = []
    for i in range(1, num_buckets):
        cut = sample[min(len(sample) - 1, (i * len(sample)) // num_buckets)]
        if not cuts or cut != cuts[-1]:
            cuts.append(cut)
    return RangePartitioner(key_fn, cuts, descending=not ascending)


# --------------------------------------------------------------------- blocks
class ShuffleBlock:
    """One sealed (map-partition, reduce-bucket) exchange payload."""

    CODEC_PICKLE = 0
    CODEC_ZLIB = 1

    __slots__ = ("payload", "count", "raw_bytes", "codec", "header_bytes")

    def __init__(self, payload: bytes, count: int, raw_bytes: int,
                 codec: int, header_bytes: int = 0):
        self.payload = payload
        self.count = count
        self.raw_bytes = raw_bytes
        self.codec = codec
        self.header_bytes = header_bytes

    @classmethod
    def seal(cls, items: List[Any], compress: bool = False,
             threshold: int = DEFAULT_COMPRESS_THRESHOLD) -> "ShuffleBlock":
        payload = pickle.dumps(items, protocol=pickle.HIGHEST_PROTOCOL)
        raw_bytes = len(payload)
        codec = cls.CODEC_PICKLE
        if compress and raw_bytes >= threshold:
            squeezed = zlib.compress(payload, 6)
            if len(squeezed) < raw_bytes:
                payload, codec = squeezed, cls.CODEC_ZLIB
        block = cls(payload, len(items), raw_bytes, codec)
        block.header_bytes = block._measure_header()
        return block

    def _measure_header(self) -> int:
        """Pickled envelope size beyond the payload itself — sealed
        blocks used to report ``len(payload)`` as bytes moved, silently
        under-counting what actually crosses each pickle wall."""
        payload, self.payload = self.payload, b""
        try:
            return len(pickle.dumps(self,
                                    protocol=pickle.HIGHEST_PROTOCOL))
        finally:
            self.payload = payload

    def decode(self) -> List[Any]:
        payload = self.payload
        if self.codec == self.CODEC_ZLIB:
            payload = zlib.decompress(payload)
        return pickle.loads(payload)

    @property
    def nbytes(self) -> int:
        return len(self.payload) + self.header_bytes

    @property
    def shm_bytes(self) -> int:
        """Uniform accounting with :class:`BatchBlock`: a classic
        pickled block never moves bytes through shared memory."""
        return 0

    @property
    def pickled_nbytes(self) -> int:
        return self.nbytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        codec = "zlib" if self.codec == self.CODEC_ZLIB else "pickle"
        return (f"<ShuffleBlock {self.count} recs "
                f"{self.nbytes}/{self.raw_bytes}B {codec}>")


class MapShuffleOutput:
    """What one map task hands back: per-bucket payloads + record counts."""

    __slots__ = ("buckets", "records_in", "records_out")

    def __init__(self, buckets: List[Any], records_in: int,
                 records_out: int):
        self.buckets = buckets
        self.records_in = records_in
        self.records_out = records_out


# ---------------------------------------------------------------------- tasks
class MapShuffleTask:
    """The map half of an exchange: bucket → combine → seal.

    ``partitioner`` of ``None`` round-robins by global element position
    (repartition), which is why each task receives ``(offset, items)``
    — no shared mutable state, deterministic chunk by chunk. A
    ``combiner`` (when the stage has one) collapses each bucket list
    before anything is shipped; combined buckets hold partial
    aggregates the reduce-side post operator knows how to merge.

    Columnar mode changes two things. Buckets seal into
    :class:`~repro.engine.columnar.BatchBlock`s (batch-encoded, and
    shm-backed when ``shm_prefix`` is set) instead of pickled
    :class:`ShuffleBlock`s. And the combiner runs *per batch*: a bucket
    larger than ``batch_rows`` is combined in batch-sized slices whose
    partials are folded left-to-right with ``merge`` — the stage's
    reduce-side post operator, the one contract-bound to merge partial
    aggregates — so the result is byte-identical to combining the
    bucket in one pass.
    """

    __slots__ = ("partitioner", "num_buckets", "combiner", "seal",
                 "compress", "threshold", "columnar", "batch_rows",
                 "merge", "shm_prefix")

    def __init__(self, partitioner: Optional[Callable[[Any], int]],
                 num_buckets: int,
                 combiner: Optional[Callable[[List[Any]], List[Any]]] = None,
                 seal: bool = False, compress: bool = False,
                 threshold: int = DEFAULT_COMPRESS_THRESHOLD,
                 columnar: bool = False, batch_rows: int = 0,
                 merge: Optional[Callable[[List[Any]], List[Any]]] = None,
                 shm_prefix: Optional[str] = None):
        self.partitioner = partitioner
        self.num_buckets = num_buckets
        self.combiner = combiner
        self.seal = seal
        self.compress = compress
        self.threshold = threshold
        self.columnar = columnar
        self.batch_rows = batch_rows
        self.merge = merge
        self.shm_prefix = shm_prefix

    def _combine_batched(self, bucket: List[Any]) -> List[Any]:
        size = self.batch_rows
        combine = self.combiner
        if len(bucket) <= size:
            return combine(bucket)
        merge = self.merge
        partial: Optional[List[Any]] = None
        for start in range(0, len(bucket), size):
            piece = combine(bucket[start:start + size])
            partial = piece if partial is None else merge(partial + piece)
        return partial

    def __call__(self, chunk) -> MapShuffleOutput:
        offset, items = chunk
        n = self.num_buckets
        buckets: List[List[Any]] = [[] for _ in range(n)]
        scatter(items, self.partitioner, buckets, offset)
        records_in = len(items)
        combine = self.combiner
        if combine is not None:
            if self.columnar and self.batch_rows and self.merge is not None:
                buckets = [self._combine_batched(bucket) if bucket
                           else bucket for bucket in buckets]
            else:
                buckets = [combine(bucket) if bucket else bucket
                           for bucket in buckets]
        records_out = sum(len(bucket) for bucket in buckets)
        if self.seal:
            if self.columnar:
                sealed: List[Any] = [
                    BatchBlock.seal(bucket, self.compress, self.threshold,
                                    self.shm_prefix)
                    if bucket else None
                    for bucket in buckets]
            else:
                sealed = [
                    ShuffleBlock.seal(bucket, self.compress, self.threshold)
                    if bucket else None
                    for bucket in buckets]
            return MapShuffleOutput(sealed, records_in, records_out)
        return MapShuffleOutput(buckets, records_in, records_out)


def merge_pieces(pieces: List[Any]) -> List[Any]:
    """Concatenate one reduce bucket's payloads in map-partition order."""
    merged: List[Any] = []
    for piece in pieces:
        if piece is None:
            continue
        if isinstance(piece, (ShuffleBlock, BatchBlock)):
            merged.extend(piece.decode())
        else:
            merged.extend(piece)
    return merged


class ReduceShuffleTask:
    """The reduce half: decode + concatenate pieces, run the post op."""

    __slots__ = ("post",)

    def __init__(self, post: Callable[[List[Any]], List[Any]]):
        self.post = post

    def __call__(self, pieces: List[Any]) -> List[Any]:
        return self.post(merge_pieces(pieces))


# ---------------------------------------------------------------------- joins
class BroadcastHashJoinOp:
    """Probe one big-side partition against a broadcast hash table.

    The small side was collected into ``table`` (key → list of values)
    on the driver; each probe task streams its partition through the
    table — no shuffle of either side. ``small_is_right`` records which
    join operand the table came from so output pairs keep their
    ``(left_value, right_value)`` orientation.
    """

    __slots__ = ("table", "how", "small_is_right")

    def __init__(self, table, how: str, small_is_right: bool):
        self.table = table
        self.how = how
        self.small_is_right = small_is_right

    def __call__(self, part: List[Any]) -> List[Any]:
        out: List[Any] = []
        table = self.table
        if self.small_is_right:
            left_outer = self.how == "left"
            for key, left_value in part:
                matches = table.get(key)
                if matches:
                    if len(matches) == 1:   # the dimension-table case
                        out.append((key, (left_value, matches[0])))
                    else:
                        out.extend((key, (left_value, right_value))
                                   for right_value in matches)
                elif left_outer:
                    out.append((key, (left_value, None)))
        else:  # inner join probing the right side against a left table
            for key, right_value in part:
                matches = table.get(key)
                if matches:
                    if len(matches) == 1:
                        out.append((key, (matches[0], right_value)))
                    else:
                        out.extend((key, (left_value, right_value))
                                   for left_value in matches)
        return out


class CogroupJoinTask:
    """Shuffled-join reduce task: cogroup one bucket's two sides, emit.

    Receives ``(left_pieces, right_pieces)`` for a single reduce bucket
    and reproduces the classic cogroup-then-flatten ordering: keys in
    first-appearance order (left side first), pairs in the left×right
    nested order.
    """

    __slots__ = ("how",)

    def __init__(self, how: str):
        self.how = how

    def __call__(self, sides) -> List[Any]:
        left_pieces, right_pieces = sides
        grouped = {}
        for key, value in merge_pieces(left_pieces):
            entry = grouped.get(key)
            if entry is None:
                entry = grouped[key] = ([], [])
            entry[0].append(value)
        for key, value in merge_pieces(right_pieces):
            entry = grouped.get(key)
            if entry is None:
                entry = grouped[key] = ([], [])
            entry[1].append(value)
        out: List[Any] = []
        left_outer = self.how == "left"
        for key, (lefts, rights) in grouped.items():
            if len(rights) == 1:            # the dimension-table case
                right_value = rights[0]
                for left_value in lefts:
                    out.append((key, (left_value, right_value)))
            elif rights:
                out.extend((key, (left_value, right_value))
                           for left_value in lefts
                           for right_value in rights)
            elif left_outer:
                out.extend((key, (left_value, None))
                           for left_value in lefts)
        return out


def payload_bytes(partitions: List[List[Any]]) -> int:
    """Pickled size of a payload — what 'bytes moved' means for a
    process pool; 0 when the payload isn't picklable."""
    try:
        return len(pickle.dumps(partitions,
                                protocol=pickle.HIGHEST_PROTOCOL))
    except PICKLING_ERRORS:
        return 0


class _OverLimit(Exception):
    """Raised by :class:`_ByteCounter` to abandon a pickle mid-stream."""


class _ByteCounter:
    """Write-only sink for ``pickle.Pickler``: counts, stores nothing."""

    __slots__ = ("size", "limit")

    def __init__(self, limit: int):
        self.size = 0
        self.limit = limit

    def write(self, data) -> None:
        self.size += len(data)
        if self.size > self.limit:
            raise _OverLimit


def bounded_payload_bytes(partitions: List[List[Any]],
                          limit: int) -> Optional[int]:
    """:func:`payload_bytes` when that is at most ``limit``, else ``None``.

    The pickler streams into a counter that gives up one frame (64 KiB)
    past ``limit``, so asking "does this side fit?" costs O(limit), not
    O(side). The bytes counted are the bytes ``pickle.dumps`` returns;
    0 still means the payload would not pickle.
    """
    counter = _ByteCounter(limit)
    try:
        pickle.Pickler(counter, protocol=pickle.HIGHEST_PROTOCOL).dump(
            partitions)
    except _OverLimit:
        return None
    except PICKLING_ERRORS:
        return 0
    return counter.size
