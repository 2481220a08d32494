"""The four workloads of the e2e benchmark.

Each workload is a class with these methods the runner in
``bench_e2e.py`` calls in order:

* ``setup(seed, tracer)`` builds the inputs from the seed and returns
  the state one measured pass consumes (timed as ``setup_s``);
* ``measure(state, tracer)`` is the measured region and returns a
  :class:`Pass`; its output checks run after the clock stops;
* ``trace_targets(tracer)`` wraps the layer boundaries this workload
  crosses (traced pass only);
* ``after_trace(state)``, where a workload has one, measures what
  needs the traced pass's inputs but no tracing (engine arms, the
  unsharded serve comparison);
* ``close(state)`` releases what ``setup`` built.

The program is touched only through its public surface —
``generate_world``/``WorldConfig``, ``ExploratoryPlatform`` with
``PlatformConfig()`` defaults, ``generate_schedule``/``replay``,
``rescan_oracle``, ``SparkLiteContext`` — and is handed only inputs
generated from the seed.
"""

from __future__ import annotations

import gc
import hashlib
import inspect
import json
import operator
import random
import resource
import statistics
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from e2e_trace import Tracer

from repro import (ExploratoryPlatform, PlatformConfig, SparkLiteContext,
                   WorldConfig, generate_world)
from repro.serve.alerting import rescan_oracle
from repro.serve.loadgen import LoadProfile, generate_schedule, replay
from repro.serve.outbox import Subscriber
from repro.serve.service import ServeConfig
from repro.serve.sharding import ShardConfig


@dataclass(frozen=True)
class Sizes:
    """Input sizes. ``FULL`` is what the committed numbers are measured
    at; ``SMOKE`` only proves the harness end to end in seconds."""

    pipeline_scale: float = 1.0 / 16.0   # WorldConfig.default
    serve_scale: float = 1.0 / 80.0      # WorldConfig.small
    serve_qps: float = 200.0
    #: ISSUE 11 asked for 40 s (8,000 requests) and 80 days; 88 driver
    #: runs must end inside 57 minutes on a host that slows by a quarter
    #: for an hour at a time, and at those sizes they took 52
    serve_duration_s: float = 25.0
    ingest_scale: float = 1.0 / 32.0
    ingest_days: int = 64
    ingest_subs: int = 500
    engine_rows: int = 400_000
    engine_rounds: int = 3


FULL = Sizes()
SMOKE = Sizes(pipeline_scale=0.003, serve_scale=0.003, serve_duration_s=2.0,
              ingest_scale=0.003, ingest_days=5, ingest_subs=50,
              engine_rows=12_000, engine_rounds=1)


@dataclass
class Pass:
    """What one measured pass produced."""

    wall_s: float
    #: user + system CPU seconds over the same region
    cpu_s: float
    #: ``ru_maxrss`` when the clock stopped (the output checks that
    #: follow allocate too, and are not the program's cost)
    peak_rss_mb: float
    #: units of the workload's own work done in ``wall_s`` (landed
    #: records, input rows, requests, committed ingest units)
    work: int
    #: the slow end of the workload's step times (see README glossary)
    tail_ms: float
    attempted: int
    failed: int
    #: failed output checks; empty means the outputs are correct
    problems: List[str] = field(default_factory=list)
    #: SHA-256 of the output; equal across runs of one seed
    digest: str = ""
    #: counts that must repeat exactly across runs of one seed
    counts: Dict[str, Any] = field(default_factory=dict)
    #: per-layer metrics this pass can report (timings the workload
    #: takes itself; the traced pass adds the tracer's)
    layers: Dict[str, float] = field(default_factory=dict)
    #: filled in by the runner: the host speed measured around the pass
    speed: float = 1.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_seconds() -> float:
    """User + system seconds of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class _Clock:
    """``with _Clock() as clock:`` around a measured region: wall and
    CPU seconds, and the peak RSS when it ended."""

    def __enter__(self) -> "_Clock":
        self._cpu = _cpu_seconds()
        self.start = perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.end = perf_counter()
        self.wall_s = self.end - self.start
        self.cpu_s = _cpu_seconds() - self._cpu
        self.peak_rss_mb = _peak_rss_mb()


#: a tail is read where this many samples lie beyond it
BEYOND_TAIL = 10


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..1) of a non-empty list."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q * len(ordered))) - 1))
    return ordered[rank]


def _engine_totals(sc: Any, since: Optional[Dict[str, int]] = None,
                   ) -> Dict[str, int]:
    """Counts from the context's own per-job metrics, optionally less
    an earlier reading (set-up may have run jobs of its own)."""
    jobs = sc.metrics_trace.jobs()
    totals = {
        "engine.jobs": sc.jobs_run,
        "engine.tasks": sum(j.task_attempts for j in jobs),
        "engine.task_retries": sum(j.retried_tasks for j in jobs),
        "engine.shuffle_records": sum(j.shuffle_records for j in jobs),
        "engine.shuffle_bytes": sum(j.shuffle_bytes for j in jobs),
    }
    if since is not None:
        totals = {k: v - since[k] for k, v in totals.items()}
    return totals


def _engine_baseline(sc: Any) -> Dict[str, int]:
    # the context keeps a bounded trace of past jobs; an 80-day ingest
    # runs more jobs than the default bound keeps
    sc.metrics_trace.maxlen = 10 ** 9
    return _engine_totals(sc)


#: functions called once per request or record are timed one call in
#: this many (prime, so no periodic call pattern aliases with it)
HOT_SAMPLE = 61
#: one write in 5,000 flushes a whole part file; sampling writes this
#: densely catches ~30 of a crawl's ~220 flushes instead of ~4
WRITE_SAMPLE = 7

#: public RDD actions — each one runs a job on the engine
_RDD_ACTIONS = ("collect", "count", "take", "first", "reduce", "sum", "mean",
                "top", "take_ordered", "stats", "histogram",
                "count_by_value", "count_by_key", "collect_as_map",
                "save_as_json_dataset")


def _trace_engine(tracer: Tracer) -> None:
    from repro.engine.rdd import RDD
    for action in _RDD_ACTIONS:
        if action in RDD.__dict__:
            tracer.patch(RDD, action, "engine.action")


def _trace_dfs(tracer: Tracer, decode: bool) -> None:
    from repro.dfs.filesystem import MiniDfs
    from repro.dfs.jsonlines import JsonLinesWriter
    tracer.patch(MiniDfs, "create", "dfs.create", sample=1,
                 units=lambda status: status.length)
    tracer.patch(MiniDfs, "read", "dfs.read", sample=1, units=len)
    tracer.patch(MiniDfs, "read_hedged", "dfs.read_hedged", sample=1,
                 units=lambda hedged: len(hedged.data))
    tracer.patch(MiniDfs, "write_atomic", "dfs.write_atomic", sample=1)
    tracer.patch(JsonLinesWriter, "write", "dfs.jsonlines.write",
                 sample=WRITE_SAMPLE)
    if decode:
        # every JSON-lines reader in the program decodes one
        # ``json.loads`` per record; even counting them costs ~0.3 us a
        # record, too much where a serve query decodes a 5,000-line part
        tracer.patch(json, "loads", "dfs.jsonlines.decode",
                     sample=HOT_SAMPLE)


def _dfs_layers(tracer: Tracer) -> Dict[str, float]:
    return {
        "dfs.jsonlines.write.records": tracer.calls("dfs.jsonlines.write"),
        "dfs.jsonlines.write.busy_s": tracer.busy("dfs.jsonlines.write"),
        "dfs.jsonlines.read.records": tracer.calls("dfs.jsonlines.decode"),
        "dfs.jsonlines.read.busy_s": (tracer.busy("dfs.jsonlines.decode")
                                      + tracer.busy("dfs.read")),
        "dfs.bytes_written": tracer.units("dfs.create"),
        "dfs.bytes_read": (tracer.units("dfs.read")
                           + tracer.units("dfs.read_hedged")),
        "dfs.write_atomic.calls": tracer.calls("dfs.write_atomic"),
    }


def _engine_layers(tracer: Tracer, sc: Any,
                   since: Dict[str, int]) -> Dict[str, float]:
    layers: Dict[str, float] = dict(_engine_totals(sc, since))
    layers["engine.action.busy_s"] = tracer.outermost_busy("engine.action")
    layers["engine.action.self_s"] = tracer.self_s("engine.action")
    return layers


# ===================================================================== pipeline
class PipelineBatch:
    """The paper's own job: crawl -> land -> analyze -> index."""

    name = "pipeline_batch"
    PLUGINS = (("engagement_table", "analysis.engagement_s"),
               ("investor_activity", "analysis.investor_activity_s"),
               ("community_study", "analysis.community_study_s"),
               ("success_prediction", "analysis.prediction_s"))

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, seed: int, tracer: Tracer) -> Any:
        with tracer.span("world.generate"):
            world = generate_world(WorldConfig(
                scale=self.sizes.pipeline_scale, seed=seed))
        return ExploratoryPlatform(world)

    def trace_targets(self, tracer: Tracer) -> None:
        from repro.community.coda import CoDA
        from repro.crawl.augment import CrunchBaseAugmenter
        from repro.crawl.client import ApiClient
        from repro.crawl.enrich import FacebookCrawler, TwitterCrawler
        from repro.crawl.frontier import BfsCrawler
        from repro.metrics import shared
        from repro.net.http import SimServer
        tracer.patch(SimServer, "handle", "sources.handle",
                     sample=HOT_SAMPLE)
        tracer.patch(ApiClient, "request", "crawl.client", sample=HOT_SAMPLE)
        tracer.patch(BfsCrawler, "run", "crawl.bfs")
        tracer.patch(CrunchBaseAugmenter, "run", "crawl.augment")
        for crawler in (FacebookCrawler, TwitterCrawler):
            tracer.patch(crawler, "run", "crawl.enrich")
            tracer.patch(crawler, "replay", "crawl.enrich")
        tracer.patch(CoDA, "fit", "community.coda.fit")
        tracer.patch(shared, "sampled_shared_sizes", "metrics.shared.sampled")
        _trace_dfs(tracer, decode=True)
        _trace_engine(tracer)

    def measure(self, platform: Any, tracer: Tracer) -> Pass:
        engine_before = _engine_baseline(platform.sc)
        layers: Dict[str, float] = {}
        with _Clock() as clock:
            with tracer.span("pipeline.crawl"):
                summary = platform.run_full_crawl()
            crawled = perf_counter()
            with tracer.span("graph.build"):
                platform.investor_graph()
            layers["graph.build_s"] = perf_counter() - crawled
            results = {}
            for plugin, metric in self.PLUGINS:
                rss = _peak_rss_mb()
                began = perf_counter()
                with tracer.span(metric[:-2]):
                    results[plugin] = platform.run_plugin(plugin)
                layers[metric] = perf_counter() - began
                if plugin == "investor_activity":
                    layers["analysis.investor_activity.rss_delta_mb"] = \
                        _peak_rss_mb() - rss
            analyzed = perf_counter()
            with tracer.span("serve.dataset.build"):
                platform.serve_dataset()
        start, end = clock.start, clock.end

        layers.update({
            "crawl_wall_s": crawled - start,
            "analyze_wall_s": analyzed - crawled,
            "index_build_wall_s": end - analyzed,
            "serve.dataset.build_s": end - analyzed,
            "community.coda.iterations":
                results["community_study"].coda.iterations,
        })
        enrich = (summary.facebook, summary.twitter)
        clients = [r.client_stats for r in
                   (summary.angellist, summary.crunchbase) + enrich
                   if r.client_stats is not None]
        parked = sum(len(q) for q in platform.dead_letter_queues.values())
        layers.update({
            "crawl.client.requests": summary.total_requests,
            "crawl.client.retries": sum(c.retries for c in clients),
            "crawl.deadletters.parked": sum(r.dead_lettered for r in enrich),
        })
        if tracer.enabled:
            layers.update(_dfs_layers(tracer))
            layers.update(_engine_layers(tracer, platform.sc, engine_before))
            layers.update({
                "sources.handle.calls": tracer.calls("sources.handle"),
                "sources.handle.busy_s": tracer.busy("sources.handle"),
                "crawl.client.self_s": tracer.self_s("crawl.client"),
                "crawl.bfs.self_s": tracer.self_s("crawl.bfs"),
                "crawl.augment.wall_s": tracer.busy("crawl.augment"),
                "crawl.enrich.wall_s": tracer.busy("crawl.enrich"),
                "community.coda.fit_s": tracer.busy("community.coda.fit"),
                "metrics.shared.sampled_s":
                    tracer.busy("metrics.shared.sampled"),
            })

        # ---- output checks (clock stopped)
        problems = []
        landed = _landed(platform.dfs)
        world = platform.world
        # the BFS reaches everything but a handful of entities nobody
        # follows or invests in (4 of 46,502 at 1/16 scale on some seeds)
        for what, found, directory, population in (
                ("companies", summary.angellist.startups,
                 "/crawl/angellist/startups", len(world.companies)),
                ("users", summary.angellist.users,
                 "/crawl/angellist/users", len(world.users))):
            got = landed.lines[directory]
            if got != found:
                problems.append(f"landed {got} {what}, the crawl found "
                                f"{found}")
            if not 0.999 * population <= got <= population:
                problems.append(f"landed {got} {what}, the world has "
                                f"{population}")
        rows = len(results["engagement_table"].rows)
        if rows != 11:
            problems.append(f"engagement table has {rows} rows, not 11")
        failed = sum(c.failures for c in clients) + parked
        return Pass(
            wall_s=clock.wall_s, cpu_s=clock.cpu_s,
            peak_rss_mb=clock.peak_rss_mb, work=landed.records,
            tail_ms=1000.0 * max(crawled - start, analyzed - crawled,
                                 end - analyzed),
            attempted=summary.total_requests, failed=failed,
            problems=problems, digest=landed.digest,
            counts={"requests": summary.total_requests,
                    "landed_records": landed.records,
                    "landed_bytes": landed.nbytes,
                    "coda_iterations":
                        results["community_study"].coda.iterations},
            layers=layers)

    def close(self, platform: Any) -> None:
        platform.close()


@dataclass
class _Landed:
    records: int
    nbytes: int
    digest: str
    lines: Dict[str, int]


def _landed(dfs: Any) -> _Landed:
    """Digest and line counts over every landed crawl dataset part."""
    sha = hashlib.sha256()
    lines: Dict[str, int] = Counter()
    nbytes = 0
    for directory in ExploratoryPlatform.CRAWL_DATASET_DIRS:
        for path in sorted(dfs.glob_parts(directory)):
            data = dfs.read(path)
            sha.update(path.encode("utf-8"))
            sha.update(data)
            lines[directory] += data.count(b"\n")
            nbytes += len(data)
    return _Landed(sum(lines.values()), nbytes, sha.hexdigest(), lines)


# ======================================================================= engine
_PARTITIONS = 8
#: rows per job, as a multiple of ``Sizes.engine_rows`` — chosen so each
#: job takes about the same time on the default arm
_ROW_FACTORS = {"reduce_skewed": 2.0, "group_wide": 1.0,
                "join_dim_broadcast": 4.0 / 3.0, "join_dim_shuffle": 0.5,
                "sort_wide": 4.0 / 3.0}
_SMALL_DIM_KEYS = 2_000      # ~40 KB serialized: under the threshold
_MIN_BIG_DIM_KEYS = 8_000    # ~400 KB serialized: over the threshold

#: PlatformConfig field -> SparkLiteContext keyword, as
#: ExploratoryPlatform.__init__ passes them (the DFS-backed ones — cache
#: spill, checkpoints, fault schedule — have nothing to attach to here)
_PLATFORM_ENGINE_KWARGS = {
    "engine_parallelism": "parallelism", "engine_backend": "backend",
    "task_retries": "task_retries", "shuffle_compress": "shuffle_compress",
    "engine_columnar": "engine_columnar", "batch_rows": "batch_rows",
    "broadcast_join_threshold": "broadcast_join_threshold",
    "engine_adaptive": "engine_adaptive",
    "target_partition_bytes": "target_partition_bytes",
    "cache_budget": "cache_budget", "task_deadline": "task_deadline",
    "speculation": "speculation"}

#: each arm is one flag away from the default; ``default`` itself is
#: here so that the others have a number taken the same way (one round,
#: the answers in memory) to stand against
ENGINE_ARMS = {"default": {},
               "serial": {"backend": "serial"},
               "process": {"backend": "process"},
               "columnar": {"engine_columnar": True},
               "adaptive": {"engine_adaptive": True},
               "compress": {"shuffle_compress": True},
               "speculation": {"speculation": True}}


def _first(pair: Tuple) -> Any:
    return pair[0]


def _job_reduce_skewed(sc: Any, data: Dict) -> List:
    return (sc.parallelize(data["skewed"], _PARTITIONS)
            .reduce_by_key(operator.add).collect())


def _job_group_wide(sc: Any, data: Dict) -> List:
    return (sc.parallelize(data["wide"], _PARTITIONS)
            .group_by_key().collect())


def _job_join_broadcast(sc: Any, data: Dict) -> List:
    return (sc.parallelize(data["fact_small"], _PARTITIONS)
            .join(sc.parallelize(data["dim_small"], _PARTITIONS)).collect())


def _job_join_shuffle(sc: Any, data: Dict) -> List:
    return (sc.parallelize(data["fact_big"], _PARTITIONS)
            .join(sc.parallelize(data["dim_big"], _PARTITIONS)).collect())


def _job_sort_wide(sc: Any, data: Dict) -> List:
    return (sc.parallelize(data["sortable"], _PARTITIONS)
            .sort_by(_first).collect())


ENGINE_JOBS: Dict[str, Callable] = {
    "reduce_skewed": _job_reduce_skewed,
    "group_wide": _job_group_wide,
    "join_dim_broadcast": _job_join_broadcast,
    "join_dim_shuffle": _job_join_shuffle,
    "sort_wide": _job_sort_wide}


def engine_inputs(seed: int, base_rows: int) -> Dict[str, List]:
    """Seeded synthetic rows for the five jobs."""
    rng = random.Random(seed)
    rows = {job: max(16, int(base_rows * factor))
            for job, factor in _ROW_FACTORS.items()}
    big_keys = max(_MIN_BIG_DIM_KEYS, rows["join_dim_shuffle"] // 4)

    def wide(i: int) -> Tuple[int, str]:
        return (rng.randrange(4096), f"record-{i % 7}-" + "payload" * 4)

    skew_keys = max(16, rows["reduce_skewed"] // 8)
    return {
        # Zipf-like keys: a handful of keys carry most of the rows
        "skewed": [(min(skew_keys, int(rng.paretovariate(1.1))), 1)
                   for _ in range(rows["reduce_skewed"])],
        "wide": [wide(i) for i in range(rows["group_wide"])],
        "sortable": [wide(i) for i in range(rows["sort_wide"])],
        # fact x dimension with unique dimension keys: output rows ==
        # fact rows, so the join is timed, not the building of a blown-up
        # result list
        "fact_small": [(rng.randrange(_SMALL_DIM_KEYS), i)
                       for i in range(rows["join_dim_broadcast"])],
        "dim_small": [(k, f"d{k}") for k in range(_SMALL_DIM_KEYS)],
        "fact_big": [(rng.randrange(big_keys), i)
                     for i in range(rows["join_dim_shuffle"])],
        "dim_big": [(k, f"dim-{k}-" + "x" * 24) for k in range(big_keys)],
    }


def engine_answers(data: Dict) -> Dict[str, Any]:
    """What each job must return, worked out in plain Python without the
    engine. Join and group outputs are compared order-free (the engine
    promises content, not bucket order), hence the dict shapes."""
    reduced: Dict = Counter()
    for key, one in data["skewed"]:
        reduced[key] += one
    groups: Dict[int, List[str]] = {}
    for key, payload in data["wide"]:
        groups.setdefault(key, []).append(payload)
    answers: Dict[str, Any] = {
        "reduce_skewed": dict(reduced),
        "group_wide": {key: sorted(values) for key, values in groups.items()},
        "sort_wide": sorted(data["sortable"], key=_first),
    }
    for job, fact, dim in (("join_dim_broadcast", "fact_small", "dim_small"),
                           ("join_dim_shuffle", "fact_big", "dim_big")):
        lookup = dict(data[dim])
        # the fact value is the row number, so it keys the joined row
        answers[job] = {row: (key, lookup[key]) for key, row in data[fact]}
    return answers


def _matches(job: str, result: List, answer: Any) -> bool:
    if job == "sort_wide":
        return result == answer
    if len(result) != len(answer):
        return False
    if job == "reduce_skewed":
        return dict(result) == answer
    if job == "group_wide":
        return {key: sorted(values) for key, values in result} == answer
    return {row: (key, attr) for key, (row, attr) in result} == answer


def _fingerprint(job: str, result: List) -> bytes:
    """One job's part of the output digest (small on purpose:
    exactness is ``_matches``'s job)."""
    if job == "reduce_skewed":
        summary: Any = sorted(result)
    elif job == "group_wide":
        summary = sorted((key, len(list(values))) for key, values in result)
    elif job == "sort_wide":
        summary = result[::997]
    else:
        summary = len(result)
    return repr((job, summary)).encode("utf-8")


def engine_kwargs(**flags: Any) -> Optional[Dict[str, Any]]:
    """Context kwargs for PlatformConfig() defaults plus one arm's flag;
    None when the context no longer accepts that flag."""
    accepted = inspect.signature(SparkLiteContext.__init__).parameters
    if any(flag not in accepted for flag in flags):
        return None
    config = PlatformConfig()
    kwargs = {kw: getattr(config, attr)
              for attr, kw in _PLATFORM_ENGINE_KWARGS.items()
              if hasattr(config, attr) and kw in accepted}
    kwargs.update(flags)
    return kwargs


@dataclass
class _EngineState:
    data: Dict[str, List]
    sc: Any
    #: what each job must return; worked out before the first timed arm
    answers: Optional[Dict[str, Any]] = None
    #: ``ru_maxrss`` when the last timed round ended
    peak_rss_mb: float = 0.0


class EngineJobs:
    """Engine-only: no world, no DFS, rows already in memory."""

    name = "engine_jobs"

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, seed: int, tracer: Tracer) -> Any:
        data = engine_inputs(seed, self.sizes.engine_rows)
        # the rows are the benchmark's, not the program's: keep the
        # collector from rescanning three million input tuples during
        # every job (a third of a join's time, and most of its jitter)
        gc.collect()
        gc.freeze()
        return _EngineState(data, SparkLiteContext(**engine_kwargs()))

    def trace_targets(self, tracer: Tracer) -> None:
        _trace_dfs(tracer, decode=False)
        _trace_engine(tracer)

    @staticmethod
    def _run_arm(sc: Any, state: _EngineState, rounds: int,
                 ) -> Tuple[Dict[str, _Clock], str, List[str]]:
        """Per job: the fastest of ``rounds`` timed rounds, then the
        last round's result checked, digested and dropped. A slow spell
        of the host lasts seconds and a round under one: the fastest of
        three is untouched by a spell that the median of three is not."""
        if state.answers is None:   # same rows for every arm: work out once
            state.answers = engine_answers(state.data)
            gc.freeze()             # as much the benchmark's as the rows
        fastest: Dict[str, _Clock] = {}
        problems: List[str] = []
        sha = hashlib.sha256()
        for job, run in ENGINE_JOBS.items():
            for _ in range(rounds):
                result = None       # the last round's rows go first
                with _Clock() as clock:
                    result = run(sc, state.data)
                if job not in fastest or clock.wall_s < fastest[job].wall_s:
                    fastest[job] = clock
            if not _matches(job, result, state.answers[job]):
                problems.append(f"{job} differs from the plain-Python answer")
            sha.update(_fingerprint(job, result))
        state.peak_rss_mb = clock.peak_rss_mb   # after the last round
        return fastest, sha.hexdigest(), problems

    def measure(self, state: _EngineState, tracer: Tracer) -> Pass:
        sc = state.sc
        engine_before = _engine_baseline(sc)
        # no warm-up: the fastest of three shrugs off a slow first round
        fastest, digest, problems = self._run_arm(sc, state,
                                                  self.sizes.engine_rounds)
        totals = _engine_totals(sc, engine_before)
        layers: Dict[str, float] = {
            f"engine.default.{job}_s": clock.wall_s
            for job, clock in fastest.items()}
        if tracer.enabled:
            layers.update(_engine_layers(tracer, sc, engine_before))
            layers.update(_dfs_layers(tracer))
        rows = sum(len(state.data[name]) for name in
                   ("skewed", "wide", "fact_small", "fact_big", "sortable"))
        return Pass(
            wall_s=sum(clock.wall_s for clock in fastest.values()),
            cpu_s=sum(clock.cpu_s for clock in fastest.values()),
            peak_rss_mb=state.peak_rss_mb, work=rows,
            tail_ms=1000.0 * max(clock.wall_s for clock in fastest.values()),
            attempted=totals["engine.tasks"],
            failed=totals["engine.task_retries"],
            problems=problems, digest=digest,
            counts={k: totals[k] for k in
                    ("engine.tasks", "engine.shuffle_records")},
            layers=layers)

    def after_trace(self, state: _EngineState,
                    ) -> Tuple[Dict[str, float], List[str], List[str]]:
        """``engine.<arm>.total_s`` for every arm the context accepts;
        the rest are reported absent, which is not a failure."""
        layers: Dict[str, float] = {}
        absent: List[str] = []
        problems: List[str] = []
        warm_up = engine_inputs(0, 0)
        for arm, flags in ENGINE_ARMS.items():
            kwargs = engine_kwargs(**flags)
            if kwargs is None:
                absent.append(f"engine.{arm}.total_s")
                continue
            with SparkLiteContext(**kwargs) as sc:
                # a few rows through every job first, so that the
                # process arm's timed round does not start its pool
                for run in ENGINE_JOBS.values():
                    run(sc, warm_up)
                fastest, _, arm_problems = self._run_arm(sc, state, 1)
            layers[f"engine.{arm}.total_s"] = sum(
                clock.wall_s for clock in fastest.values())
            problems += [f"{arm} arm: {p}" for p in arm_problems]
        return layers, absent, problems

    def close(self, state: _EngineState) -> None:
        state.sc.stop()
        gc.unfreeze()


# ======================================================================== serve
class ServeQueries:
    """The read path: point look-ups through the sharded query tier.

    The schedule is open-loop in *simulated* time. In wall time this is
    a closed loop with one client: ``replay`` issues the next request
    when the previous one returns.
    """

    name = "serve_queries"
    SHARDS, REPLICAS, WORKERS, QUEUE_DEPTH = 4, 2, 4, 16
    CHECK_EVERY = 50

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def _serve_config(self) -> ServeConfig:
        # admission at twice the offered rate: nothing is shed by design
        return ServeConfig(qps_limit=2 * self.sizes.serve_qps,
                           queue_depth=self.QUEUE_DEPTH,
                           workers=self.WORKERS)

    def _profile(self, seed: int) -> LoadProfile:
        return LoadProfile(qps=self.sizes.serve_qps,
                           duration_s=self.sizes.serve_duration_s, seed=seed)

    def setup(self, seed: int, tracer: Tracer) -> Any:
        with tracer.span("world.generate"):
            world = generate_world(WorldConfig(
                scale=self.sizes.serve_scale, seed=seed))
        platform = ExploratoryPlatform(world)
        platform.run_full_crawl()
        with tracer.span("serve.dataset.build"):
            dataset = platform.serve_dataset()
        with tracer.span("serve.shard.boot"):
            service = platform.sharded_query_service(
                config=self._serve_config(),
                shard_config=ShardConfig(num_shards=self.SHARDS,
                                         replicas=self.REPLICAS))
        with tracer.span("serve.loadgen.schedule"):
            schedule = generate_schedule(self._profile(seed), dataset)
        return platform, service, schedule, seed

    def trace_targets(self, tracer: Tracer) -> None:
        from repro.serve.dataset import ServeDataset
        _trace_dfs(tracer, decode=False)
        _trace_engine(tracer)
        tracer.patch(ServeDataset, "run", "serve.part_read",
                     units=lambda answer: answer.hedged is not None)

    def measure(self, state: Any, tracer: Tracer) -> Pass:
        platform, service, schedule, seed = state
        engine_before = _engine_baseline(platform.sc)
        report, walls, clock, busy = _timed_replay(service, schedule)

        per_request = [walls[id(r)] for r in schedule]
        by_status: Dict[str, List[float]] = {}
        by_kind: Dict[str, List[float]] = {}
        for result in report.results:
            wall = walls[id(result.request)]
            by_status.setdefault(result.status, []).append(wall)
            by_kind.setdefault(result.request.kind, []).append(wall)

        def p50_us(samples: Optional[List[float]]) -> float:
            return 1e6 * statistics.median(samples) if samples else 0.0

        layers: Dict[str, float] = {
            "serve.submit.busy_s": busy["submit"],
            "serve.execute.busy_s": busy["execute"],
            "serve.wall_us_p50": p50_us(per_request),
            "serve.wall_us_p50.cached": p50_us(by_status.get("cached")),
            "serve.wall_us_p50.fresh": p50_us(by_status.get("fresh")),
            "serve.cache_hit_ratio": (len(by_status.get("cached", ()))
                                      / max(1, report.answered)),
            "serve_sim_ms_p99": 1000.0 * report.p99_latency_s,
        }
        for kind, samples in by_kind.items():
            layers[f"serve.wall_us_p50.{kind}"] = p50_us(samples)
        if tracer.enabled:
            _, busy_s, _, part_reads = tracer.total("serve.part_read")
            layers.update(_dfs_layers(tracer))
            layers.update(_engine_layers(tracer, platform.sc, engine_before))
            layers["serve.part_reads"] = part_reads
            # a run() that reads no part is a dict probe: ~1 us
            layers["serve.part_read.busy_s"] = busy_s

        # ---- output checks (clock stopped)
        problems = []
        if report.answered != report.offered:
            problems.append(f"answered {report.answered} of "
                            f"{report.offered} offered")
        oracle = platform.serve_dataset()
        sha = hashlib.sha256()
        fresh = [r for r in report.results if r.status == "fresh"
                 and not r.partial]
        wrong = 0
        for result in fresh[::self.CHECK_EVERY]:
            request = result.request
            want = json.dumps(oracle.run(request.kind, request.key,
                                         platform.dfs,
                                         depth=request.depth).value,
                              sort_keys=True)
            got = json.dumps(result.value, sort_keys=True)
            sha.update(got.encode("utf-8"))
            wrong += got != want
        if wrong:
            problems.append(f"{wrong} sampled fresh answers differ from "
                            f"the unsharded dataset")
        statuses = Counter(r.status for r in report.results)
        sha.update(repr(sorted(statuses.items())).encode("utf-8"))
        return Pass(
            wall_s=clock.wall_s, cpu_s=clock.cpu_s,
            peak_rss_mb=clock.peak_rss_mb, work=report.offered,
            tail_ms=1000.0 * _percentile(per_request, 0.99),
            attempted=report.offered,
            failed=report.offered - report.answered,
            problems=problems, digest=sha.hexdigest(),
            counts={"offered": report.offered, "answered": report.answered,
                    "cached": statuses.get("cached", 0),
                    "fresh": statuses.get("fresh", 0),
                    "serve_sim_ms_p99": 1000.0 * report.p99_latency_s},
            layers=layers)

    def after_trace(self, state: Any) -> Tuple[Dict[str, float], List[str],
                                               List[str]]:
        """The same schedule through the unsharded ``query_service``;
        the gap to ``work_per_s`` is what scatter-gather costs."""
        platform, _, _, seed = state
        unsharded = platform.query_service(config=self._serve_config())
        schedule = generate_schedule(self._profile(seed),
                                     platform.serve_dataset())
        _, _, clock, _ = _timed_replay(unsharded, schedule)
        return ({"serve.unsharded.queries_per_s":
                 len(schedule) / clock.wall_s}, [], [])

    def close(self, state: Any) -> None:
        state[0].close()


def _timed_replay(service: Any, schedule: List) -> Tuple[Any, Dict[int, float],
                                                         _Clock, Dict]:
    """``replay`` with the wall time of ``submit`` + ``execute`` taken
    per request — the number a serve user feels, which the simulated
    latency the SLO gates use says nothing about."""
    walls: Dict[int, float] = {}
    busy = {"submit": 0.0, "execute": 0.0}
    submit, execute = service.submit, service.execute

    def timed_submit(request: Any, now: Optional[float] = None) -> Any:
        began = perf_counter()
        try:
            return submit(request, now=now)
        finally:
            took = perf_counter() - began
            walls[id(request)] = took
            busy["submit"] += took

    def timed_execute(request: Any, start_s: float) -> Any:
        began = perf_counter()
        try:
            return execute(request, start_s)
        finally:
            took = perf_counter() - began
            walls[id(request)] += took
            busy["execute"] += took

    service.submit, service.execute = timed_submit, timed_execute
    try:
        with _Clock() as clock:
            report = replay(service, schedule)
    finally:
        del service.submit, service.execute
    return report, walls, clock, busy


# ======================================================================= ingest
class IngestAlerts:
    """The write path: daily ingest with standing queries delivered."""

    name = "ingest_alerts"

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, seed: int, tracer: Tracer) -> Any:
        from repro.serve.subscriptions import (KIND_COMMUNITY_INVESTOR,
                                               KIND_COMPANY_FUNDING,
                                               KIND_NEIGHBORHOOD_FOLLOW)
        with tracer.span("world.generate"):
            world = generate_world(WorldConfig(
                scale=self.sizes.ingest_scale, seed=seed))
        platform = ExploratoryPlatform(world)
        platform.run_full_crawl()
        with tracer.span("serve.dataset.build"):
            dataset = platform.serve_dataset()
        registry = platform.subscription_registry()
        subscribers: Dict[str, Subscriber] = {}
        subs = self.sizes.ingest_subs
        wanted = (
            [("t1", KIND_COMMUNITY_INVESTOR, label)
             for label in sorted(dataset.community_members)]
            + [("t0", KIND_COMPANY_FUNDING, company)
               for company in dataset.keys_for("company")[:subs]]
            + [("t2", KIND_NEIGHBORHOOD_FOLLOW, user)
               for user in sorted(dataset.follows_out)[:subs]])
        for tenant, kind, key in wanted:
            sub = registry.register(tenant, kind, int(key))
            subscribers.setdefault(
                sub.subscriber_id,
                Subscriber(sub.subscriber_id, tenant=sub.tenant))
        _, evaluator, outbox = platform.alerting_stack(
            registry=registry, subscribers=subscribers, seed=seed)
        scheduler = platform.ingest_pipeline(alerting=evaluator)
        return platform, registry, subscribers, evaluator, outbox, scheduler

    def trace_targets(self, tracer: Tracer) -> None:
        from repro.crawl.ledger import IngestLedger
        from repro.crawl.scheduler import ContinuousScheduler
        from repro.dfs.upsert import UpsertDataset
        from repro.serve.alerting import AlertEvaluator
        # 80 days decode 6 million records: even counting them costs 11%
        _trace_dfs(tracer, decode=False)
        _trace_engine(tracer)
        tracer.patch(ContinuousScheduler, "tick", "crawl.scheduler.tick")
        for method, value in vars(IngestLedger).items():
            if inspect.isfunction(value) and not method.startswith("_"):
                tracer.patch(IngestLedger, method, "crawl.ledger")
        tracer.patch(UpsertDataset, "apply", "dfs.upsert.apply")
        for method in ("read", "key_count", "canonical_bytes"):
            tracer.patch(UpsertDataset, method, "dfs.upsert.read")
        tracer.patch(AlertEvaluator, "on_derived_commit",
                     "serve.alerting.evaluate")

    def measure(self, state: Any, tracer: Tracer) -> Pass:
        platform, registry, subscribers, evaluator, outbox, scheduler = state
        engine_before = _engine_baseline(platform.sc)
        day_ms = []
        with _Clock() as clock:
            for day in range(1, self.sizes.ingest_days + 1):
                began = perf_counter()
                scheduler.run_until_day(day)
                with tracer.span("serve.outbox.drain"):
                    outbox.drain()
                day_ms.append(1000.0 * (perf_counter() - began))

        edge = min(10, len(day_ms))
        layers: Dict[str, float] = {
            "ingest.day_wall_ms.first10": statistics.mean(day_ms[:edge]),
            "ingest.day_wall_ms.last10": statistics.mean(day_ms[-edge:]),
            "crawl.scheduler.units_committed":
                scheduler.stats.units_committed,
            "crawl.scheduler.units_redelivered":
                scheduler.stats.units_redelivered,
            "dfs.files_live": platform.dfs.file_count,
            "serve.alerting.records_scanned":
                evaluator.stats.records_scanned,
            "serve.outbox.attempts": outbox.stats.attempts,
            "serve.outbox.delivered": outbox.stats.delivered,
        }
        if tracer.enabled:
            layers.update(_dfs_layers(tracer))
            layers.update(_engine_layers(tracer, platform.sc, engine_before))
            layers.update({
                "crawl.scheduler.tick.self_s":
                    tracer.self_s("crawl.scheduler.tick"),
                "crawl.ledger.busy_s": tracer.outermost_busy("crawl.ledger"),
                "dfs.upsert.apply.busy_s": tracer.busy("dfs.upsert.apply"),
                "dfs.upsert.read.busy_s":
                    tracer.outermost_busy("dfs.upsert.read"),
                "serve.alerting.evaluate.busy_s":
                    tracer.busy("serve.alerting.evaluate"),
                "serve.outbox.drain.busy_s":
                    tracer.busy("serve.outbox.drain"),
            })

        # ---- output checks (clock stopped)
        problems = []
        oracle = rescan_oracle(registry, platform.serve_dataset(),
                               scheduler.derived)
        delivered = set(outbox.delivered_ids())
        if delivered != oracle:
            problems.append(
                f"delivered ids differ from the rescan oracle: "
                f"{len(oracle - delivered)} missing, "
                f"{len(delivered - oracle)} extra")
        duplicated = [sid for sid, s in sorted(subscribers.items())
                      if len(s.effects) != len(set(s.effects))]
        if duplicated:
            problems.append(f"duplicate effects at {duplicated[:3]}")
        # work = ledger units committed (five a day): the same on every
        # seed, where the number of alerts a seed's world triggers is not
        return Pass(
            wall_s=clock.wall_s, cpu_s=clock.cpu_s,
            peak_rss_mb=clock.peak_rss_mb,
            work=scheduler.stats.units_committed,
            # the slowest day that still has ten slower: days grow, so
            # this is a day near the end, and a hiccup on one day only
            # joins the ten above it
            tail_ms=sorted(day_ms)[-(BEYOND_TAIL + 1)]
            if len(day_ms) > BEYOND_TAIL else max(day_ms),
            attempted=len(oracle), failed=len(oracle - delivered),
            problems=problems,
            digest=hashlib.sha256(
                "\n".join(sorted(delivered)).encode("utf-8")).hexdigest(),
            counts={"delivered": outbox.stats.delivered,
                    "oracle": len(oracle),
                    "units_committed": scheduler.stats.units_committed,
                    "files_live": platform.dfs.file_count},
            layers=layers)

    def close(self, state: Any) -> None:
        state[0].close()


WORKLOADS = {cls.name: cls for cls in
             (PipelineBatch, EngineJobs, ServeQueries, IngestAlerts)}
