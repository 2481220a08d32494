"""Names, units, directions and bounds of every metric the benchmark
prints. ``BENCHMARK.json`` at the repo root lists the same metrics for
the driver; ``test_bench_e2e.py`` fails if the two drift apart.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

WORKLOADS: List[Tuple[str, str]] = [
    ("pipeline_batch",
     "the paper's own job at 1/16 scale: crawl, land, analyze, index; "
     "sources/net/crawl/dfs/analysis do the work, the engine little"),
    ("engine_jobs",
     "reduce/group/join/sort over in-memory rows: engine >90% of the "
     "work, dfs/crawl/serve 0%, so a codec change must leave it flat"),
    ("serve_queries",
     "5,000 point look-ups through the sharded tier: the read path into "
     "the same landed parts pipeline_batch scans in bulk"),
    ("ingest_alerts",
     "64 ingest days with standing queries: small atomic DFS writes and "
     "tiny engine jobs where per-call fixed cost dominates"),
]

#: (name, unit, better, bound) — every workload reports every one.
#: ``bound`` is the share of the parent's median by which the metric may
#: worsen before a change counts as a regression. Times are seconds at
#: reference speed (see ``bench_e2e._HostSpeed``).
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("tail_ms", "ms", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

_S, _N, _LOW, _HIGH = "s", "count", "lower", "higher"

#: (name, unit, better) — measured on the traced run; a layer that does
#: no work on a workload reads 0 there
PER_LAYER: List[Tuple[str, str, str]] = [
    # the issue's workload-specific end-to-end numbers; the driver wants
    # every end-to-end metric on every workload, so these live here
    ("crawl_wall_s", _S, _LOW),
    ("analyze_wall_s", _S, _LOW),
    ("index_build_wall_s", _S, _LOW),
    ("serve_sim_ms_p99", "ms", _LOW),
    ("failed_fraction", "ratio", _LOW),
    ("world.generate_s", _S, _LOW),
    ("sources.handle.calls", _N, _LOW),
    ("sources.handle.busy_s", _S, _LOW),
    ("crawl.client.requests", _N, _LOW),
    ("crawl.client.retries", _N, _LOW),
    ("crawl.client.self_s", _S, _LOW),
    ("crawl.bfs.self_s", _S, _LOW),
    ("crawl.augment.wall_s", _S, _LOW),
    ("crawl.enrich.wall_s", _S, _LOW),
    ("crawl.deadletters.parked", _N, _LOW),
    ("crawl.scheduler.tick.self_s", _S, _LOW),
    ("crawl.ledger.busy_s", _S, _LOW),
    ("crawl.scheduler.units_committed", _N, _HIGH),
    ("crawl.scheduler.units_redelivered", _N, _LOW),
    ("ingest.day_wall_ms.first10", "ms", _LOW),
    ("ingest.day_wall_ms.last10", "ms", _LOW),
    ("dfs.jsonlines.write.records", _N, _LOW),
    ("dfs.jsonlines.write.busy_s", _S, _LOW),
    ("dfs.jsonlines.read.records", _N, _LOW),
    ("dfs.jsonlines.read.busy_s", _S, _LOW),
    ("dfs.bytes_written", "bytes", _LOW),
    ("dfs.bytes_read", "bytes", _LOW),
    ("dfs.upsert.apply.busy_s", _S, _LOW),
    ("dfs.upsert.read.busy_s", _S, _LOW),
    ("dfs.write_atomic.calls", _N, _LOW),
    ("dfs.files_live", _N, _LOW),
    ("engine.jobs", _N, _LOW),
    ("engine.action.busy_s", _S, _LOW),
    ("engine.action.self_s", _S, _LOW),
    ("engine.tasks", _N, _LOW),
    ("engine.task_retries", _N, _LOW),
    ("engine.shuffle_records", _N, _LOW),
    ("engine.shuffle_bytes", "bytes", _LOW),
    ("engine.default.reduce_skewed_s", _S, _LOW),
    ("engine.default.group_wide_s", _S, _LOW),
    ("engine.default.join_dim_broadcast_s", _S, _LOW),
    ("engine.default.join_dim_shuffle_s", _S, _LOW),
    ("engine.default.sort_wide_s", _S, _LOW),
    ("engine.default.total_s", _S, _LOW),
    ("engine.serial.total_s", _S, _LOW),
    ("engine.process.total_s", _S, _LOW),
    ("engine.columnar.total_s", _S, _LOW),
    ("engine.adaptive.total_s", _S, _LOW),
    ("engine.compress.total_s", _S, _LOW),
    ("engine.speculation.total_s", _S, _LOW),
    ("graph.build_s", _S, _LOW),
    ("community.coda.fit_s", _S, _LOW),
    ("community.coda.iterations", _N, _LOW),
    ("metrics.shared.sampled_s", _S, _LOW),
    ("analysis.engagement_s", _S, _LOW),
    ("analysis.investor_activity_s", _S, _LOW),
    ("analysis.community_study_s", _S, _LOW),
    ("analysis.prediction_s", _S, _LOW),
    ("analysis.investor_activity.rss_delta_mb", "MB", _LOW),
    ("serve.dataset.build_s", _S, _LOW),
    ("serve.shard.boot_s", _S, _LOW),
    ("serve.loadgen.schedule_s", _S, _LOW),
    ("serve.submit.busy_s", _S, _LOW),
    ("serve.execute.busy_s", _S, _LOW),
    ("serve.wall_us_p50", "us", _LOW),
    ("serve.wall_us_p50.company", "us", _LOW),
    ("serve.wall_us_p50.investor", "us", _LOW),
    ("serve.wall_us_p50.neighborhood", "us", _LOW),
    ("serve.wall_us_p50.community", "us", _LOW),
    ("serve.wall_us_p50.engagement", "us", _LOW),
    ("serve.wall_us_p50.cached", "us", _LOW),
    ("serve.wall_us_p50.fresh", "us", _LOW),
    ("serve.part_reads", _N, _LOW),
    ("serve.part_read.busy_s", _S, _LOW),
    ("serve.cache_hit_ratio", "ratio", _HIGH),
    ("serve.unsharded.queries_per_s", "1/s", _HIGH),
    ("serve.alerting.evaluate.busy_s", _S, _LOW),
    ("serve.alerting.records_scanned", _N, _LOW),
    ("serve.outbox.drain.busy_s", _S, _LOW),
    ("serve.outbox.attempts", _N, _LOW),
    ("serve.outbox.delivered", _N, _HIGH),
    ("trace.overhead_ratio", "ratio", _LOW),
    # reference calibration time / this run's: divide an end-to-end time
    # by it to get the raw seconds this host took
    ("host.speed", "ratio", _HIGH),
]


#: a run measures whole passes for at least this long. Every workload's
#: pass is longer today, so a run is one pass; if a pass ever gets
#: faster than this, runs take the median of several
RUN_SECONDS = 5


def benchmark_json() -> Dict:
    """The contract file the driver reads (``BENCHMARK.json``)."""
    return {
        "command": ["python3", "benchmarks/e2e/bench_e2e.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
