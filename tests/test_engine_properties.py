"""Hypothesis property tests for RDD semantics.

For arbitrary small datasets and partition counts the engine must agree
with plain Python: ``collect()`` round-trips ``parallelize``,
``reduce_by_key`` agrees with a dict-based fold, ``count()``/``sum()``
agree with the builtins, and shuffles merge keys that Python considers
equal (including the nasty cross-type ``1 == 1.0 == True`` cases).
"""

from decimal import Decimal

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.engine.context import SparkLiteContext  # noqa: E402

SETTINGS = settings(max_examples=30, deadline=None)

ints = st.lists(st.integers(-1_000, 1_000), max_size=60)
partitions = st.integers(min_value=1, max_value=8)
#: keys spanning types with cross-type equality (1 == 1.0 == True)
keys = st.one_of(
    st.integers(-5, 5),
    st.booleans(),
    st.none(),
    st.sampled_from([0.0, 1.0, 2.5, -3.0]),
    st.text(alphabet="abcγ", max_size=3),
    st.tuples(st.integers(0, 3), st.text(alphabet="xy", max_size=2)),
)
pairs = st.lists(st.tuples(keys, st.integers(-50, 50)), max_size=50)


def _sc(parallelism=2, backend="serial", **kwargs):
    return SparkLiteContext(parallelism=parallelism, backend=backend,
                            **kwargs)


@given(data=ints, parts=partitions)
@SETTINGS
def test_parallelize_collect_roundtrip(data, parts):
    with _sc() as sc:
        assert sc.parallelize(data, parts).collect() == data


@given(data=ints, parts=partitions)
@SETTINGS
def test_count_and_sum_agree_with_builtins(data, parts):
    with _sc() as sc:
        rdd = sc.parallelize(data, parts)
        assert rdd.count() == len(data)
        assert rdd.sum() == sum(data)


@given(data=pairs, parts=partitions, width=partitions)
@SETTINGS
def test_reduce_by_key_agrees_with_dict_fold(data, parts, width):
    expected = {}
    for k, v in data:
        expected[k] = expected[k] + v if k in expected else v
    with _sc() as sc:
        result = (sc.parallelize(data, parts)
                  .reduce_by_key(lambda a, b: a + b, num_partitions=width)
                  .collect())
    assert dict(result) == expected
    assert len(result) == len(expected)  # no key split across buckets


@given(data=pairs, parts=partitions)
@SETTINGS
def test_group_by_key_partitions_all_values(data, parts):
    expected = {}
    for k, v in data:
        expected.setdefault(k, []).append(v)
    with _sc() as sc:
        grouped = sc.parallelize(data, parts).group_by_key().collect()
    assert {k: v for k, v in grouped} == expected
    assert len(grouped) == len(expected)


@given(data=ints, parts=partitions)
@SETTINGS
def test_distinct_agrees_with_set(data, parts):
    with _sc() as sc:
        result = sc.parallelize(data, parts).distinct().collect()
    assert sorted(result) == sorted(set(data))


@given(data=ints, parts=partitions, width=partitions)
@SETTINGS
def test_repartition_preserves_multiset(data, parts, width):
    with _sc() as sc:
        rdd = sc.parallelize(data, parts).repartition(width)
        assert sorted(rdd.collect()) == sorted(data)
        assert rdd.num_partitions == width


@given(data=pairs, parts=partitions)
@SETTINGS
def test_thread_backend_matches_serial(data, parts):
    def job(sc):
        return (sc.parallelize(data, parts)
                .map(lambda kv: (kv[0], kv[1] * 2))
                .reduce_by_key(lambda a, b: a + b)
                .collect())
    with _sc(backend="serial") as serial, \
            _sc(parallelism=3, backend="thread") as threaded:
        assert job(threaded) == job(serial)


# ----------------------------------------------------- shuffle fast path
@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
@given(data=pairs, parts=partitions, width=partitions)
@SETTINGS
def test_combined_shuffles_match_uncombined(backend, data, parts, width):
    """Map-side combining is invisible: identical output, any backend,
    for every stage kind that declares a combiner."""
    def jobs(sc):
        pairs_rdd = sc.parallelize(data, parts)
        return [
            pairs_rdd.reduce_by_key(lambda a, b: a + b,
                                    num_partitions=width).collect(),
            pairs_rdd.aggregate_by_key(
                0, lambda acc, v: acc + 1,
                lambda a, b: a + b, num_partitions=width).collect(),
            pairs_rdd.count_by_key_rdd(num_partitions=width).collect(),
            pairs_rdd.distinct(num_partitions=width).collect(),
        ]
    with _sc(parallelism=3, backend=backend) as on, \
            _sc(parallelism=3, backend=backend,
                shuffle_combine=False) as off:
        assert repr(jobs(on)) == repr(jobs(off))


@pytest.mark.parametrize("ascending", [True, False])
@given(data=ints, parts=partitions, width=partitions)
@SETTINGS
def test_range_sort_agrees_with_sorted(ascending, data, parts, width):
    """Range-partitioned sort == the old single-partition collapse ==
    Python's stable sorted()."""
    with _sc(parallelism=3) as sc:
        result = (sc.parallelize(data, parts)
                  .sort_by(lambda x: x % 7, ascending=ascending,
                           num_partitions=width)
                  .collect())
    assert result == sorted(data, key=lambda x: x % 7,
                            reverse=not ascending)


@given(data=pairs, parts=partitions)
@SETTINGS
def test_count_by_key_agrees_with_counter(data, parts):
    expected = {}
    for k, _v in data:
        expected[k] = expected.get(k, 0) + 1
    with _sc() as sc:
        assert sc.parallelize(data, parts).count_by_key() == expected


@given(data=ints, parts=partitions, n=st.integers(0, 70))
@SETTINGS
def test_take_agrees_with_prefix(data, parts, n):
    with _sc() as sc:
        assert sc.parallelize(data, parts).take(n) == data[:n]


# ------------------------------------------------------- columnar engine
#: the columnar matrix spawns two contexts per example; a leaner example
#: budget keeps the process-backend legs affordable
MATRIX_SETTINGS = settings(max_examples=12, deadline=None)


def _add(a, b):
    return a + b


def _repr_key(kv):
    return repr(kv[0])


def _shuffle_battery(sc, data, parts, width):
    """Every wide-stage kind in one pass, reprs compared verbatim.

    Module-level functions on purpose: the process-backend legs must
    genuinely ship the stages to pool workers, not fall back."""
    rdd = sc.parallelize(data, parts)
    return [
        rdd.reduce_by_key(_add, num_partitions=width).collect(),
        rdd.group_by_key(num_partitions=width).collect(),
        rdd.count_by_key_rdd(num_partitions=width).collect(),
        rdd.distinct(num_partitions=width).collect(),
        rdd.join(rdd, num_partitions=width).collect(),
        rdd.sort_by(_repr_key, num_partitions=width).collect(),
    ]


@pytest.mark.parametrize("backend,compress", [
    ("serial", False), ("serial", True),
    ("thread", False), ("thread", True),
    ("process", False), ("process", True),
])
@given(data=pairs, parts=partitions, width=partitions)
@MATRIX_SETTINGS
def test_columnar_matches_row_oracle(backend, compress, data, parts, width):
    """The columnar×backend×compression matrix: batch-at-a-time narrow
    ops, per-batch combiners and BatchBlock exchanges must be
    byte-identical to the row engine's serial oracle for arbitrary
    datasets — including cross-type-equal keys (1 == 1.0 == True)."""
    with _sc(parallelism=3) as oracle:
        expected = repr(_shuffle_battery(oracle, data, parts, width))
    with _sc(parallelism=3, backend=backend, engine_columnar=True,
             batch_rows=7, shuffle_compress=compress,
             shuffle_compress_threshold=1) as columnar:
        got = repr(_shuffle_battery(columnar, data, parts, width))
    assert got == expected


@given(data=pairs, parts=partitions, width=partitions)
@MATRIX_SETTINGS
def test_columnar_shm_matches_row_oracle(data, parts, width):
    """Shared-memory exchange (forced on, any backend) is invisible in
    results and leaves no segment behind."""
    from repro.engine.columnar import (SHM_BASE_PREFIX, list_segments,
                                       shm_available)
    if not shm_available():
        pytest.skip("no shared memory on this platform")
    with _sc(parallelism=3) as oracle:
        expected = repr(_shuffle_battery(oracle, data, parts, width))
    with _sc(parallelism=3, engine_columnar=True, batch_rows=7,
             shuffle_shm=True) as shm:
        got = repr(_shuffle_battery(shm, data, parts, width))
    assert got == expected
    assert list_segments(SHM_BASE_PREFIX) == []


def _retry_shuffle_job(sc, data, parts, width, flaky_map):
    return (sc.parallelize(data, parts)
            .map(flaky_map)
            .reduce_by_key(lambda a, b: a + b, num_partitions=width)
            .collect())


@given(data=st.lists(st.integers(0, 200), min_size=1, max_size=40),
       parts=partitions, width=partitions)
@SETTINGS
def test_combined_shuffle_survives_task_retries(data, parts, width):
    """Task re-execution must not double-count combined partials.

    One transient failure per example (any more could legitimately
    exhaust the retry budget when they land in the same partition);
    the failed map task re-runs, re-bucketing and re-combining every
    element it already processed."""
    import threading
    lock = threading.Lock()
    state = {"tripped": False}

    def flaky(x):
        with lock:
            if not state["tripped"]:
                state["tripped"] = True
                raise RuntimeError("transient")
        return (x % 5, x)

    with _sc(parallelism=3, backend="thread") as oracle:
        expected = _retry_shuffle_job(oracle, data, parts, width,
                                      lambda x: (x % 5, x))
    with SparkLiteContext(parallelism=3, backend="thread",
                          task_retries=2) as sc:
        got = _retry_shuffle_job(sc, data, parts, width, flaky)
    assert sorted(got) == sorted(expected)


@given(data=st.lists(st.integers(0, 200), min_size=1, max_size=40),
       parts=partitions, width=partitions)
@MATRIX_SETTINGS
def test_columnar_shuffle_survives_task_retries(data, parts, width):
    """Re-executed map tasks re-bucket and re-combine per batch; the
    per-batch partials must not double-count — and when the exchange is
    shm-backed, the retried attempt's orphaned segments must still be
    reclaimed at job end."""
    import threading

    from repro.engine.columnar import SHM_BASE_PREFIX, list_segments
    lock = threading.Lock()
    state = {"tripped": False}

    def flaky(x):
        with lock:
            if not state["tripped"]:
                state["tripped"] = True
                raise RuntimeError("transient")
        return (x % 5, x)

    with _sc(parallelism=3, backend="thread") as oracle:
        expected = _retry_shuffle_job(oracle, data, parts, width,
                                      lambda x: (x % 5, x))
    with SparkLiteContext(parallelism=3, backend="thread",
                          task_retries=2, engine_columnar=True,
                          batch_rows=7, shuffle_shm=True) as sc:
        got = _retry_shuffle_job(sc, data, parts, width, flaky)
    assert sorted(got) == sorted(expected)
    assert list_segments(SHM_BASE_PREFIX) == []


def test_columnar_outputs_identical_under_speculation():
    """A speculative backup may decode the same shm-backed block as the
    straggler it raced; both must see the data and the job must stay
    byte-identical to the serial row oracle."""
    import time

    from repro.engine.columnar import (SHM_BASE_PREFIX, list_segments,
                                       shm_available)
    seen = set()
    lock = __import__("threading").Lock()

    def slow_once(x):
        with lock:
            first = x not in seen
            seen.add(x)
        if x == 7 and first:
            time.sleep(0.3)
        return (x % 5, x)

    with _sc(parallelism=2) as oracle:
        expected = (oracle.parallelize(range(40), 8)
                    .map(lambda x: (x % 5, x))
                    .reduce_by_key(lambda a, b: a + b).collect())
    with SparkLiteContext(parallelism=4, backend="thread",
                          speculation=True, engine_columnar=True,
                          batch_rows=7,
                          shuffle_shm=shm_available() or None) as sc:
        got = (sc.parallelize(range(40), 8)
               .map(slow_once)
               .reduce_by_key(lambda a, b: a + b).collect())
    assert got == expected
    assert list_segments(SHM_BASE_PREFIX) == []


# ------------------------------------------------------- exchange placement
#: everything a shuffle key has been seen to be, chosen to collide as
#: dict keys wherever Python lets two classes compare equal
_colliding = st.sampled_from([1, 1.0, True, Decimal(1), 0, -0.0, 0.0, False,
                              2 ** 63, float(2 ** 63), 10 ** 19, 1e19,
                              -(2 ** 70), 2, 2.5, Decimal("2.5"), None,
                              b"", b"raw", "1", "", "\ud800lone", "γ"])
_placement_scalars = st.one_of(
    _colliding, _colliding, _colliding,
    st.integers(-3, 3),
    st.integers(-2 ** 80, 2 ** 80),
    st.text(max_size=4),
    st.binary(max_size=4),
)
_placement_keys = st.one_of(
    _placement_scalars, _placement_scalars, _placement_scalars,
    st.tuples(_placement_scalars),
    st.tuples(_placement_scalars,
              st.tuples(_placement_scalars, _placement_scalars)),
    st.frozensets(st.one_of(st.integers(-2, 2), st.booleans(),
                            st.sampled_from([1.0, "a", None])),
                  max_size=3),
)


def _pair_key(item):
    return item[0]


@given(keys=st.lists(_placement_keys, max_size=60),
       width=st.integers(1, 9), offset=st.integers(0, 1000))
@settings(max_examples=200, deadline=None)
def test_map_task_places_every_item_where_the_partitioner_says(
        keys, width, offset):
    """The inlined hash loop and its chunk-local memo are invisible:
    each item sits in bucket ``_hash_partition(key, n)``, and a bucket
    keeps arrival order — for any mix of equal-but-different-class keys
    in any order."""
    from repro.engine.shuffle import (HashPartitioner, MapShuffleTask,
                                      _hash_partition)
    items = [(key, position) for position, key in enumerate(keys)]
    out = MapShuffleTask(HashPartitioner(_pair_key, width), width)(
        (offset, items))
    expected = [[] for _ in range(width)]
    for item in items:
        expected[_hash_partition(item[0], width)].append(item)
    # positions tell apart items whose keys compare equal (1 vs 1.0)
    assert [[pos for _key, pos in bucket] for bucket in out.buckets] \
        == [[pos for _key, pos in bucket] for bucket in expected]
    assert (out.records_in, out.records_out) == (len(items), len(items))


@pytest.mark.parametrize("descending", [False, True])
@given(keys=st.lists(st.one_of(st.integers(-20, 20),
                               st.sampled_from([0.5, -0.0, 7.0, 1e19])),
                     max_size=60),
       cuts=st.lists(st.integers(-20, 20), max_size=6))
@SETTINGS
def test_map_task_range_placement_matches_partitioner_call(
        descending, keys, cuts):
    from repro.engine.shuffle import MapShuffleTask, RangePartitioner
    cuts = sorted(cuts)
    width = len(cuts) + 1
    place = RangePartitioner(_pair_key, cuts, descending=descending)
    items = [(key, position) for position, key in enumerate(keys)]
    out = MapShuffleTask(place, width)((0, items))
    expected = [[] for _ in range(width)]
    for item in items:
        expected[place(item)].append(item)
    assert out.buckets == expected
