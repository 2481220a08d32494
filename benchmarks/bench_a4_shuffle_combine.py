"""A4 ablation — the shuffle fast path: combiners, blocks, range sort.

The tentpole claim: on a skewed ``reduce_by_key`` workload, map-side
combiners cut the records crossing the exchange by at least 5× while
changing *nothing* about the job's result — byte-identical output with
combining on or off, on every backend. This module both pins that claim
as pytest-benchmark tests and, run standalone, writes the
``BENCH_engine.json`` perf-trajectory file that ``tools/check.sh``
produces for every PR::

    PYTHONPATH=src python benchmarks/bench_a4_shuffle_combine.py \
        --smoke --json benchmarks/out/BENCH_engine.json

It also gates what the exchange *costs*, by count rather than by time
(``shuffle_cost`` in the JSON): bucket placement may compute at most one
hash per distinct key per map chunk, and sizing an exchange that never
leaves the process may pickle at most the planner's stride sample of
each piece. Both are counted on the serial backend, where every call
happens in this interpreter.

The workload's functions are module-level so they pickle — the process
backend must actually ship them (and sealed ShuffleBlocks), not fall
back in-driver.
"""

import argparse
import json
import operator
import os
import pickle
import time
import zlib

import pytest

from repro.engine.backends import BACKENDS
from repro.engine.context import SparkLiteContext
from repro.engine.planner import DEFAULT_SAMPLE_ROWS

ROWS = 60_000
PARTITIONS = 8
#: skewed key space: most rows pile onto a handful of hot keys, the way
#: follower counts pile onto a few hub investors in the crawl graph
_HOT_KEYS = 8
#: upper bound on the distinct keys of ``_skewed_pair``: 8 hot + 24 cold
#: residues (12 of them live, since only some residues of x occur)
_DISTINCT_KEYS = _HOT_KEYS + 24


def _skewed_pair(x: int):
    """(key, 1) pairs with a power-law-ish hot-key skew (picklable)."""
    if x % 4:
        return (x % _HOT_KEYS, 1)          # 75% of rows on 8 hot keys
    return (_HOT_KEYS + x % 24, 1)         # the rest on a cold tail


def _count_job(sc: SparkLiteContext, rows: int):
    return (sc.parallelize(range(rows), PARTITIONS)
            .map(_skewed_pair)
            .reduce_by_key(operator.add)
            .collect())


def _run(backend: str, rows: int, combine: bool,
         compress: bool = False, rounds: int = 1):
    """One measured configuration → (sorted result, metrics dict, best s)."""
    times = []
    with SparkLiteContext(parallelism=4, backend=backend,
                          shuffle_combine=combine,
                          shuffle_compress=compress) as sc:
        result = _count_job(sc, rows)  # warm-up
        for _ in range(rounds):
            start = time.perf_counter()
            result = _count_job(sc, rows)
            times.append(time.perf_counter() - start)
        metrics = sc.last_job_metrics.as_dict(include_stages=True)
    return sorted(result), metrics, min(times)


def _rows_in(obj) -> int:
    """Rows inside a (possibly nested) list handed to ``pickle.dumps``."""
    if isinstance(obj, list):
        return sum(_rows_in(item) for item in obj)
    return 1


def _shuffle_cost(rows: int = ROWS) -> dict:
    """What one uncombined serial run of the skewed job computes to move
    ``rows`` records: CRC32 calls (bucket placement) and rows handed to
    ``pickle.dumps`` (exchange sizing — nothing else pickles on the
    serial backend). Uncombined so that every row reaches the exchange
    and a whole-exchange pickle would show as ``rows``, not as 256."""
    counts = {"hashes": 0, "pickled_rows": 0}
    real_crc32, real_dumps = zlib.crc32, pickle.dumps

    def counting_crc32(*args):
        counts["hashes"] += 1
        return real_crc32(*args)

    def counting_dumps(obj, *args, **kwargs):
        counts["pickled_rows"] += _rows_in(obj)
        return real_dumps(obj, *args, **kwargs)

    zlib.crc32, pickle.dumps = counting_crc32, counting_dumps
    try:
        with SparkLiteContext(parallelism=4, backend="serial",
                              shuffle_combine=False) as sc:
            _count_job(sc, rows)
            metrics = sc.last_job_metrics
    finally:
        zlib.crc32, pickle.dumps = real_crc32, real_dumps
    pieces = PARTITIONS * PARTITIONS        # map chunks x reduce buckets
    return {
        "rows": rows,
        "records_moved": metrics.shuffle_records_moved,
        "hash_computations": counts["hashes"],
        "hash_computations_max": _DISTINCT_KEYS * PARTITIONS,
        "hashes_per_shuffled_row": round(
            counts["hashes"] / metrics.shuffle_records_moved, 6),
        "sizing_pickled_rows": counts["pickled_rows"],
        "sizing_pickled_rows_max": DEFAULT_SAMPLE_ROWS * pieces,
    }


def _cost_violations(cost: dict) -> list:
    return [f"{name} {cost[name]} > {cost[name + '_max']}"
            for name in ("hash_computations", "sizing_pickled_rows")
            if cost[name] > cost[name + "_max"]]


# ------------------------------------------------------------------ pytest
def test_a4_exchange_cost_is_per_key_and_per_sample():
    """≤ one hash per distinct key per chunk; sizing pickles samples."""
    cost = _shuffle_cost()
    assert cost["records_moved"] == ROWS
    assert _cost_violations(cost) == []


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_a4_combiner_cuts_shuffle_volume(benchmark, backend):
    """≥5× fewer records cross the exchange with combining on."""
    result, metrics, _ = benchmark.pedantic(
        lambda: _run(backend, 20_000, combine=True), rounds=1, iterations=1)
    assert metrics["shuffle_records"] == 20_000        # pre-combine: raw
    assert metrics["shuffle_records_moved"] * 5 <= metrics["shuffle_records"]
    assert metrics["fallbacks"] == 0
    expected_keys = {_skewed_pair(x)[0] for x in range(20_000)}
    assert len(result) == len(expected_keys)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_a4_combine_on_off_identical(backend):
    """Byte-identical results, combiners on vs. off, every backend."""
    on, m_on, _ = _run(backend, 8_000, combine=True)
    off, m_off, _ = _run(backend, 8_000, combine=False)
    assert repr(on) == repr(off)
    assert m_on["shuffle_records"] == m_off["shuffle_records"]
    assert m_on["shuffle_records_moved"] < m_off["shuffle_records_moved"]


def test_a4_compression_shrinks_blocks():
    """Compressed shuffle bytes < raw serialized bytes on wide rows."""
    with SparkLiteContext(parallelism=2, backend="serial",
                          shuffle_compress=True,
                          shuffle_compress_threshold=64) as sc:
        (sc.parallelize(range(4_000), 4)
         .map(lambda x: (x % 3, "payload-" * 20 + str(x % 7)))
         .group_by_key()
         .collect())
        metrics = sc.last_job_metrics
    assert metrics.shuffle_bytes_raw > 0
    assert metrics.shuffle_bytes < metrics.shuffle_bytes_raw


# --------------------------------------------------------------- standalone
def _bench_payload(rows: int, rounds: int) -> dict:
    """The BENCH_engine.json payload: A4 combine ablation + A1 sweep."""
    from bench_a1_engine_scaling import _sweep_one

    a4 = {}
    baseline = None
    for backend in sorted(BACKENDS):
        on_result, on_metrics, on_best = _run(
            backend, rows, combine=True, rounds=rounds)
        off_result, off_metrics, off_best = _run(
            backend, rows, combine=False, rounds=rounds)
        assert repr(on_result) == repr(off_result), \
            f"combine changed results on {backend}"
        if baseline is None:
            baseline = on_result
        assert repr(on_result) == repr(baseline), \
            f"backend {backend} disagrees with serial"
        reduction = (off_metrics["shuffle_records_moved"]
                     / max(1, on_metrics["shuffle_records_moved"]))
        a4[backend] = {
            "rows": rows,
            "records_shuffled_raw": on_metrics["shuffle_records"],
            "records_moved_combined": on_metrics["shuffle_records_moved"],
            "records_moved_uncombined": off_metrics["shuffle_records_moved"],
            "record_reduction_x": round(reduction, 2),
            "shuffle_bytes_combined": on_metrics["shuffle_bytes"],
            "shuffle_bytes_uncombined": off_metrics["shuffle_bytes"],
            "wall_s_combined": round(on_best, 4),
            "wall_s_uncombined": round(off_best, 4),
        }

    a1 = [_sweep_one(backend, max(rows // 3, 1_000), PARTITIONS,
                     4, rounds) for backend in sorted(BACKENDS)]
    serial_best = next(e for e in a1 if e["backend"] == "serial")
    for entry in a1:
        entry["speedup_vs_serial"] = round(
            serial_best["wall_s_best"] / entry["wall_s_best"], 3)

    return {
        "benchmark": "engine-shuffle-fast-path",
        "a4_combine": a4,
        "shuffle_cost": _shuffle_cost(),
        "a1_backends": [
            {k: e[k] for k in ("backend", "rows", "partitions",
                               "wall_s_best", "speedup_vs_serial")}
            | {"shuffle_records": e["job_metrics"]["shuffle_records"],
               "shuffle_records_moved":
                   e["job_metrics"]["shuffle_records_moved"]}
            for e in a1],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure the shuffle fast path: map-side combine "
                    "ablation plus a backend sweep; write BENCH_engine.json.")
    parser.add_argument("--rows", type=int, default=ROWS)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help="CI scale: few rows, one round")
    parser.add_argument("--json", metavar="FILE",
                        help="write the measurements as JSON")
    args = parser.parse_args(argv)
    if args.smoke:
        args.rows, args.rounds = min(args.rows, 12_000), 1
    if args.rows < 1 or args.rounds < 1:
        parser.error("--rows/--rounds must be >= 1")

    payload = _bench_payload(args.rows, args.rounds)
    for backend, row in payload["a4_combine"].items():
        print(f"{backend:>8}: {row['records_shuffled_raw']} recs → "
              f"{row['records_moved_combined']} moved "
              f"({row['record_reduction_x']}x fewer than uncombined), "
              f"{row['wall_s_combined']:.3f}s vs "
              f"{row['wall_s_uncombined']:.3f}s uncombined")
    for entry in payload["a1_backends"]:
        print(f"{entry['backend']:>8}: {entry['wall_s_best']:.3f}s "
              f"({entry['speedup_vs_serial']}x vs serial)")

    cost = payload["shuffle_cost"]
    print(f"exchange cost (serial, uncombined, {cost['rows']} rows): "
          f"{cost['hash_computations']} hashes "
          f"(<= {cost['hash_computations_max']}), "
          f"{cost['sizing_pickled_rows']} rows pickled to size it "
          f"(<= {cost['sizing_pickled_rows_max']})")
    violations = _cost_violations(cost)
    if violations:
        print(f"FAST PATH REGRESSION: exchange cost: "
              f"{'; '.join(violations)}")
        return 1

    worst = min(row["record_reduction_x"]
                for row in payload["a4_combine"].values())
    if worst < 5.0:
        print(f"FAST PATH REGRESSION: combine reduction {worst}x < 5x")
        return 1
    if args.json:
        os.makedirs(os.path.dirname(args.json) or ".", exist_ok=True)
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(main())
