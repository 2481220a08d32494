"""Differential battery: the adaptive planner must be invisible.

Every scenario runs on the naive serial context (the semantics oracle)
and then on adaptive contexts across backends × columnar × compression,
with tiny byte targets so coalescing and skew splitting actually fire.
Outputs must be *identical* — same elements, same order, same reprs —
never just equivalent. Retry and speculation configs ride along because
adaptive decisions come from observed stats, which recomputation must
not perturb.

Functions are module-level so the process backend genuinely ships them.
"""

import operator

import pytest

from repro.dfs.filesystem import MiniDfs
from repro.dfs.jsonlines import write_json_dataset
from repro.engine.backends import BACKENDS
from repro.engine.context import SparkLiteContext
from repro.net.faults import FAULT_KILL_WORKER, FaultSchedule, FaultSpec

ALL_BACKENDS = sorted(BACKENDS)

#: shared read-only dataset for the scan scenarios
_DFS = MiniDfs()
_RECORDS = [{"id": i, "k": i % 7, "score": i * 3, "pad": "x" * 30}
            for i in range(120)]
write_json_dataset(_DFS, "/battery", _RECORDS, partitions=5)


# --------------------------------------------------------- battery functions
def _mod5_pair(x):
    return (x % 5, x)


def _skew_pair(x):
    # ~70% of rows pile onto one key: a genuinely skewed exchange
    return ("hot", x) if x % 10 < 7 else (f"k{x % 10}", x)


def _double(x):
    return x * 2


def _is_even(x):
    return x % 2 == 0

def _keep(record):
    return record["k"] < 4


def _project(record):
    return {"id": record["id"], "k": record["k"]}


def _sorted_group(kv):
    return (kv[0], sorted(kv[1]))


def _negate(x):
    return -x


# ----------------------------------------------------------------- scenarios
def scenario_reduce_by_key(sc):
    return (sc.parallelize(range(300), 6)
            .map(_mod5_pair).reduce_by_key(operator.add,
                                           num_partitions=8).collect())


def scenario_skewed_group_by_key(sc):
    return (sc.parallelize(range(400), 8)
            .map(_skew_pair).group_by_key(num_partitions=4)
            .map(_sorted_group).collect())


def scenario_skewed_reduce(sc):
    return (sc.parallelize(range(500), 8)
            .map(_skew_pair).reduce_by_key(operator.add,
                                           num_partitions=4).collect())


def scenario_distinct(sc):
    return (sc.parallelize([i % 17 for i in range(200)], 5)
            .distinct(num_partitions=6).collect())


def scenario_aggregate_by_key(sc):
    return (sc.parallelize(range(240), 6)
            .map(_mod5_pair)
            .aggregate_by_key(0, operator.add, operator.add,
                              num_partitions=7)
            .collect())


def scenario_count_by_key(sc):
    return (sc.parallelize(range(180), 5)
            .map(_skew_pair).count_by_key_rdd().collect())


def scenario_sort_by(sc):
    data = [(i * 37) % 19 for i in range(150)]
    return sc.parallelize(data, 6).sort_by(_negate).collect()


def scenario_repartition(sc):
    return sc.parallelize(range(90), 3).repartition(9).collect()


def scenario_join(sc):
    facts = sc.parallelize([(k % 6, k) for k in range(150)], 5)
    dims = sc.parallelize([(k, f"d{k}") for k in range(6)], 2)
    return sorted(facts.join(dims, num_partitions=4).collect())


def scenario_left_outer_join(sc):
    left = sc.parallelize([(k % 8, k) for k in range(80)], 4)
    right = sc.parallelize([(k, -k) for k in range(4)], 2)
    return sorted(left.left_outer_join(right).collect())


def scenario_scan_pushdown(sc):
    return (sc.json_dataset(_DFS, "/battery")
            .filter(_keep).map(_project).collect())


def scenario_scan_then_shuffle(sc):
    return (sc.json_dataset(_DFS, "/battery")
            .filter(_keep)
            .map(lambda r: (r["k"], 1))
            .reduce_by_key(operator.add)
            .collect())


def scenario_narrow_after_shuffle(sc):
    return (sc.parallelize(range(200), 5)
            .map(_mod5_pair).reduce_by_key(operator.add, num_partitions=8)
            .map_values(_double).filter(_pair_even).collect())


def _pair_even(kv):
    return kv[1] % 2 == 0


def scenario_map_partitions_consumer(sc):
    # whole-partition consumer: coalesce must stay off, results naive
    return (sc.parallelize(range(120), 4)
            .map(_mod5_pair).reduce_by_key(operator.add, num_partitions=6)
            .map_partitions(sorted).collect())


def scenario_cached_reuse(sc):
    base = (sc.parallelize(range(100), 4).map(_mod5_pair)
            .reduce_by_key(operator.add, num_partitions=6).cache())
    return [base.collect(), base.map_values(_double).collect()]


def scenario_union(sc):
    left = sc.parallelize(range(40), 3).map(_double)
    right = sc.parallelize(range(10), 2)
    return left.union(right).collect()


def scenario_take(sc):
    return (sc.parallelize(range(300), 6).map(_mod5_pair)
            .reduce_by_key(operator.add, num_partitions=8).take(3))


SCENARIOS = {
    name[len("scenario_"):]: fn
    for name, fn in sorted(globals().items())
    if name.startswith("scenario_")
}

#: tiny targets so every adaptive rewrite actually fires on test data
ADAPTIVE_KW = dict(engine_adaptive=True, target_partition_bytes=2048)


@pytest.fixture(scope="module")
def oracle():
    with SparkLiteContext(parallelism=3, backend="serial") as sc:
        yield sc


@pytest.fixture(scope="module")
def adaptive_contexts():
    ctxs = {name: SparkLiteContext(parallelism=3, backend=name,
                                   **ADAPTIVE_KW)
            for name in ALL_BACKENDS}
    yield ctxs
    for ctx in ctxs.values():
        ctx.stop()


# --------------------------------------------------------------------- tests
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_adaptive_matches_naive_oracle(oracle, adaptive_contexts,
                                       backend, scenario):
    fn = SCENARIOS[scenario]
    expected = fn(oracle)
    actual = fn(adaptive_contexts[backend])
    assert repr(actual) == repr(expected), \
        f"adaptive {backend} diverged on {scenario}"


@pytest.mark.parametrize("scenario",
                         ["reduce_by_key", "skewed_group_by_key",
                          "skewed_reduce", "join", "sort_by",
                          "scan_then_shuffle"])
@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_adaptive_columnar_matches_oracle(oracle, backend, scenario):
    fn = SCENARIOS[scenario]
    expected = fn(oracle)
    with SparkLiteContext(parallelism=3, backend=backend,
                          engine_columnar=True, batch_rows=16,
                          **ADAPTIVE_KW) as sc:
        assert repr(fn(sc)) == repr(expected), \
            f"adaptive columnar {backend} diverged on {scenario}"


@pytest.mark.parametrize("scenario", ["reduce_by_key",
                                      "skewed_group_by_key", "join"])
@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_adaptive_compressed_matches_oracle(oracle, backend, scenario):
    fn = SCENARIOS[scenario]
    expected = fn(oracle)
    with SparkLiteContext(parallelism=3, backend=backend,
                          shuffle_compress=True,
                          shuffle_compress_threshold=1,
                          **ADAPTIVE_KW) as sc:
        assert repr(fn(sc)) == repr(expected), \
            f"adaptive compressed {backend} diverged on {scenario}"


@pytest.mark.parametrize("scenario", ["skewed_group_by_key",
                                      "reduce_by_key", "join",
                                      "scan_pushdown"])
def test_adaptive_with_retries_and_speculation(oracle, scenario):
    fn = SCENARIOS[scenario]
    expected = fn(oracle)
    with SparkLiteContext(parallelism=3, backend="thread",
                          task_retries=2, speculation=True,
                          **ADAPTIVE_KW) as sc:
        assert repr(fn(sc)) == repr(expected), \
            f"adaptive retry/speculation diverged on {scenario}"


def test_adaptive_moves_fewer_bytes_on_skewed_join(oracle):
    """The headline contract: identical bytes out, fewer bytes moved."""
    fn = SCENARIOS["join"]
    with SparkLiteContext(parallelism=3, backend="serial") as naive:
        expected = fn(naive)
        naive_bytes = naive.last_job_metrics.shuffle_bytes
    with SparkLiteContext(parallelism=3, backend="serial",
                          **ADAPTIVE_KW) as sc:
        assert repr(fn(sc)) == repr(expected)
        metrics = sc.last_job_metrics
    assert metrics.broadcast_joins == 1
    assert metrics.shuffle_bytes == 0 < naive_bytes


def test_adaptive_scan_reads_fewer_bytes(oracle):
    fn = SCENARIOS["scan_pushdown"]
    expected = fn(oracle)
    with SparkLiteContext(parallelism=3, backend="serial",
                          **ADAPTIVE_KW) as sc:
        assert repr(fn(sc)) == repr(expected)
        metrics = sc.last_job_metrics
    assert metrics.scan_bytes_skipped > 0
    assert metrics.scan_fields_pruned > 0


@pytest.mark.parametrize("scenario", ["scan_pushdown",
                                      "scan_then_shuffle"])
@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_fused_scan_matches_unfused_scan(backend, scenario):
    """Every context fuses an unpersisted scan chain into the read, the
    oracle included — so the unfused stages need their own witness: a
    persisted scan never fuses."""
    fn = SCENARIOS[scenario]
    with SparkLiteContext(parallelism=3, backend=backend) as unfused:
        unfused.json_dataset(_DFS, "/battery").persist()
        expected = fn(unfused)
        assert unfused.last_job_metrics.pushed_filters == 0
    with SparkLiteContext(parallelism=3, backend=backend) as fused:
        actual = fn(fused)
        assert fused.last_job_metrics.pushed_filters == 1
        assert fused.last_job_metrics.scan_bytes_skipped > 0
    assert repr(actual) == repr(expected), \
        f"fused scan on {backend} diverged on {scenario}"


@pytest.mark.chaos
@pytest.mark.parametrize("seed", [3, 11])
def test_adaptive_survives_worker_loss(oracle, seed):
    fn = SCENARIOS["skewed_group_by_key"]
    expected = fn(oracle)
    faults = FaultSchedule([FaultSpec(FAULT_KILL_WORKER, 0.999)],
                           seed=seed)
    with SparkLiteContext(parallelism=2, backend="thread",
                          task_retries=2, engine_faults=faults,
                          **ADAPTIVE_KW) as sc:
        assert repr(fn(sc)) == repr(expected)
        assert sc.last_job_metrics.recomputed_partitions >= 1


# ------------------------------------------------------------- property mode
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SETTINGS = settings(max_examples=30, deadline=None)

pairs = st.lists(st.tuples(st.integers(min_value=0, max_value=9),
                           st.integers(min_value=-1000, max_value=1000)),
                 max_size=120)


@given(data=pairs, parts=st.integers(min_value=1, max_value=6),
       buckets=st.integers(min_value=1, max_value=8))
@SETTINGS
def test_property_reduce_by_key_identical(data, parts, buckets):
    def job(sc):
        return (sc.parallelize(data, parts)
                .reduce_by_key(operator.add, num_partitions=buckets)
                .collect())
    with SparkLiteContext(parallelism=2, backend="serial") as naive:
        expected = job(naive)
    with SparkLiteContext(parallelism=2, backend="serial",
                          engine_adaptive=True,
                          target_partition_bytes=64) as sc:
        assert repr(job(sc)) == repr(expected)


@given(data=pairs, buckets=st.integers(min_value=1, max_value=8))
@SETTINGS
def test_property_group_by_key_identical(data, buckets):
    def job(sc):
        return (sc.parallelize(data, 4)
                .group_by_key(num_partitions=buckets).collect())
    with SparkLiteContext(parallelism=2, backend="serial") as naive:
        expected = job(naive)
    with SparkLiteContext(parallelism=2, backend="serial",
                          engine_adaptive=True,
                          target_partition_bytes=64) as sc:
        assert repr(job(sc)) == repr(expected)


@given(data=st.lists(st.integers(min_value=-50, max_value=50),
                     max_size=100),
       buckets=st.integers(min_value=1, max_value=6))
@SETTINGS
def test_property_sort_and_distinct_identical(data, buckets):
    def job(sc):
        rdd = sc.parallelize(data, 3)
        return [rdd.sort_by(_negate, num_partitions=buckets).collect(),
                rdd.distinct(num_partitions=buckets).collect()]
    with SparkLiteContext(parallelism=2, backend="serial") as naive:
        expected = job(naive)
    with SparkLiteContext(parallelism=2, backend="serial",
                          engine_adaptive=True,
                          target_partition_bytes=64) as sc:
        assert repr(job(sc)) == repr(expected)


scan_records = st.lists(
    st.fixed_dictionaries({
        "id": st.integers(min_value=-50, max_value=50),
        "name": st.text(max_size=6),
        "tags": st.lists(st.integers(min_value=0, max_value=9), max_size=3),
    }), min_size=1, max_size=40)


@given(records=scan_records, parts=st.integers(min_value=1, max_value=5),
       cut=st.integers(min_value=-50, max_value=50),
       ops=st.lists(st.sampled_from(["filter", "map"]), min_size=1,
                    max_size=4))
@SETTINGS
def test_property_fused_scan_chain_identical(records, parts, cut, ops):
    """Any filter/map chain over a scan: fused into the read (default)
    and stage by stage (persisted scan) collect the same thing."""
    dfs = MiniDfs()
    write_json_dataset(dfs, "/p", records, partitions=parts)

    def job(sc):
        rdd = sc.json_dataset(dfs, "/p")
        for depth, op in enumerate(ops):
            if op == "filter":
                rdd = rdd.filter(lambda r, d=depth: r["id"] + d >= cut)
            else:
                rdd = rdd.map(lambda r, d=depth: {
                    "id": r["id"] - d, "name": r.get("name", "") + "é"})
        return rdd.collect()
    with SparkLiteContext(parallelism=2, backend="serial") as unfused:
        unfused.json_dataset(dfs, "/p").persist()
        expected = job(unfused)
        assert unfused.last_job_metrics.pushed_filters == 0
    with SparkLiteContext(parallelism=2, backend="serial") as fused:
        actual = job(fused)
        pushed = fused.last_job_metrics
        assert (pushed.pushed_filters, pushed.pushed_projections) == \
            (ops.count("filter"), ops.count("map"))
    assert repr(actual) == repr(expected)
