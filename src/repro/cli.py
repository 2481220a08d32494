"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``crawl``     — generate a world (or load one), run the full §3 crawl,
  print the populations; optionally save the world for reuse.
* ``analyze``   — run one of the built-in analyses over a fresh crawl.
* ``theory``    — test declarative hypotheses via the translation layer.
* ``snapshot``  — run the longitudinal study for N days and print the
  causality panel.
* ``ingest``    — run the durable continuous-ingest tier (write-ahead
  ledger, leases, exactly-once landing); ``--kill-at`` plus
  ``--ingest-resume`` demonstrates crash recovery.
* ``select-communities`` — sweep CoDA community counts by held-out AUC.
* ``serve``     — answer sample queries through the overload-safe online
  query tier and print per-request outcomes.
* ``serve-bench`` — replay a seeded open-loop overload schedule against
  the query tier and report shed/degradation/latency metrics.

Every command accepts ``--scale`` and ``--seed`` (or ``--world FILE`` to
reuse a saved world), and is fully offline and deterministic.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Iterator, List, Optional

from repro.core.platform import ExploratoryPlatform, PlatformConfig
from repro.util.errors import ConfigError
from repro.world.config import WorldConfig
from repro.world.generator import World, generate_world


def _add_world_args(parser: argparse.ArgumentParser) -> None:
    defaults = PlatformConfig()
    parser.add_argument("--scale", type=float, default=0.0125,
                        help="world scale; 1.0 = the paper's 744k crawl")
    parser.add_argument("--seed", type=int, default=20160626)
    parser.add_argument("--world", metavar="FILE",
                        help="load a world saved with 'crawl --save'")
    parser.add_argument("--engine-backend", default=defaults.engine_backend,
                        choices=("serial", "thread", "process"),
                        help="execution backend for the SparkLite engine")
    parser.add_argument("--engine-metrics", metavar="FILE",
                        help="dump the per-stage JobMetrics trace of every "
                             "engine job as JSON")
    parser.add_argument("--fault-profile", default="none",
                        choices=("none", "flaky", "chaos", "chaos-engine",
                                 "chaos-ingest", "alert-chaos"),
                        help="inject seeded faults into every simulated "
                             "source (see repro.net.faults.FaultSchedule); "
                             "chaos-engine adds kill-worker/hang-task "
                             "faults inside the engine itself; "
                             "chaos-ingest kills the continuous-ingest "
                             "scheduler at ledger protocol steps and "
                             "lapses its leases; alert-chaos targets the "
                             "standing-query delivery path (kill "
                             "subscribers, drop acks, duplicate "
                             "deliveries) plus occasional ingest kills")
    parser.add_argument("--chaos-seed", type=int, default=0,
                        help="seed of the fault schedule; same seed, same "
                             "faults")
    parser.add_argument("--task-retries", type=int,
                        default=defaults.task_retries,
                        help="engine per-partition task re-execution budget")
    parser.add_argument("--engine-columnar", action="store_true",
                        help="run the engine's columnar hot path: "
                             "batch-at-a-time narrow ops, per-batch "
                             "combiners, typed batch shuffle blocks "
                             "(shared-memory backed on the process "
                             "backend); results are byte-identical")
    parser.add_argument("--batch-rows", type=int,
                        default=defaults.batch_rows,
                        metavar="ROWS",
                        help="rows per record batch for the columnar "
                             "engine")
    parser.add_argument("--engine-adaptive", action="store_true",
                        help="adaptive query planning: sample stage "
                             "cardinalities at runtime, coalesce "
                             "undersized post-shuffle partitions, split "
                             "skewed buckets and choose broadcast joins "
                             "from observed sizes; results are "
                             "byte-identical to the static plans")
    parser.add_argument("--target-partition-bytes", type=int,
                        default=defaults.target_partition_bytes,
                        metavar="BYTES",
                        help="adaptive planner's post-shuffle partition "
                             "size target (coalesce up / split down "
                             "toward it)")
    parser.add_argument("--checkpoint-dir", default=defaults.checkpoint_dir,
                        metavar="DFS_DIR",
                        help="DFS directory where RDD.checkpoint() "
                             "persists partitions (lineage truncation)")
    parser.add_argument("--speculation", action="store_true",
                        help="launch deterministic backup attempts for "
                             "straggler partition tasks (first result "
                             "wins, outputs byte-identical)")
    parser.add_argument("--task-deadline", type=float,
                        default=defaults.task_deadline,
                        metavar="SECONDS",
                        help="per-task zombie deadline; a partition task "
                             "running longer is replaced in-driver")


def _resolve_world(args: argparse.Namespace) -> World:
    if args.world:
        from repro.world.io import load_world
        return load_world(args.world)
    return generate_world(WorldConfig(scale=args.scale, seed=args.seed))


def _platform_config(args: argparse.Namespace) -> PlatformConfig:
    from repro.net.faults import FaultSchedule
    config = PlatformConfig(
        engine_backend=args.engine_backend,
        task_retries=args.task_retries,
        engine_columnar=args.engine_columnar,
        batch_rows=args.batch_rows,
        engine_adaptive=args.engine_adaptive,
        target_partition_bytes=args.target_partition_bytes,
        checkpoint_dir=args.checkpoint_dir,
        speculation=args.speculation,
        task_deadline=args.task_deadline,
        faults=FaultSchedule.from_profile(args.fault_profile,
                                          seed=args.chaos_seed))
    if args.fault_profile in ("chaos", "chaos-engine"):
        # survive brownout windows: retry harder, decorrelate workers
        config.client_max_retries = 10
        config.client_backoff_jitter = 0.25
    return config


def _dump_engine_metrics(platform: ExploratoryPlatform,
                         args: argparse.Namespace) -> None:
    path = args.engine_metrics
    if not path:
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(platform.sc.metrics_trace.to_json() + "\n")
    print(f"engine metrics ({len(platform.sc.metrics_trace)} jobs) "
          f"written to {path}")


@contextlib.contextmanager
def _crawled_platform(args: argparse.Namespace,
                      world: Optional[World] = None,
                      ) -> Iterator[ExploratoryPlatform]:
    """A platform over ``world`` (default: the flags' world) that has run
    the full crawl; on exit it dumps ``--engine-metrics`` and closes."""
    platform = ExploratoryPlatform(
        world if world is not None else _resolve_world(args),
        config=_platform_config(args))
    try:
        platform.run_full_crawl()
        yield platform
    finally:
        _dump_engine_metrics(platform, args)
        platform.close()


def cmd_crawl(args: argparse.Namespace) -> int:
    world = _resolve_world(args)
    if args.save:
        from repro.world.io import save_world
        save_world(world, args.save)
        print(f"world saved to {args.save}")
    with _crawled_platform(args, world) as platform:
        summary = platform.crawl_summary
        bfs = summary.angellist
        print(f"crawled {bfs.startups:,} startups and {bfs.users:,} users "
              f"in {len(bfs.rounds)} BFS rounds "
              f"({bfs.client_stats.requests:,} requests, "
              f"{bfs.sim_duration / 3600:.1f} simulated hours)")
        print(f"augmented {summary.crunchbase.records:,} CrunchBase orgs "
              f"({summary.crunchbase.matched_by_url:,} by URL, "
              f"{summary.crunchbase.matched_by_search:,} by name search)")
        print(f"enriched {summary.facebook.fetched:,} Facebook pages and "
              f"{summary.twitter.fetched:,} Twitter profiles")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    with _crawled_platform(args) as platform:
        if args.what == "engagement":
            table = platform.run_plugin("engagement_table")
            print(table.render())
            print(f"\nFacebook lift vs no-social: "
                  f"{table.success_lift('Facebook only'):.0f}x")
        elif args.what == "investors":
            activity = platform.run_plugin("investor_activity")
            print(activity.render_cdf())
            print(f"mean={activity.mean_investments:.2f} "
                  f"median={activity.median_investments:.0f} "
                  f"max={activity.max_investments} "
                  f"mean_follows={activity.mean_follows_per_investor:.1f}")
        elif args.what == "concentration":
            print(platform.run_plugin("concentration").render())
        elif args.what == "communities":
            study = platform.run_plugin("community_study",
                                        global_pairs=args.pairs)
            print(f"{study.coda.num_communities} communities, "
                  f"avg size {study.coda.average_community_size:.1f}")
            print(f"mean shared-investor pct: {study.mean_shared_pct:.1f}% "
                  f"(random control {study.randomized_mean_shared_pct:.1f}%)")
            strong = study.strength(study.strong_community_id)
            print(f"strongest: size={strong.size} "
                  f"avg_shared={strong.avg_shared_size:.2f} "
                  f"pct={strong.shared_investor_pct:.1f}%")
        elif args.what == "prediction":
            result = platform.run_plugin("success_prediction")
            print(f"held-out AUC: {result.test_auc:.3f} "
                  f"(positive rate {100 * result.positive_rate:.2f}%)")
            for name, coef in result.top_features(6):
                print(f"  {name:<22} {coef:+.3f}")
        else:  # pragma: no cover - argparse restricts choices
            raise AssertionError(args.what)
    return 0


def cmd_theory(args: argparse.Namespace) -> int:
    from repro.core.theories import TheoryEngine
    with _crawled_platform(args) as platform:
        engine = TheoryEngine.over_platform(platform)
        for hypothesis in args.hypotheses:
            print(engine.test(hypothesis).render())
            print()
    return 0


def cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.analysis.longitudinal import analyze_snapshots
    from repro.crawl.snapshots import SnapshotScheduler
    from repro.dfs.filesystem import MiniDfs
    from repro.sources.hub import SourceHub
    from repro.world.dynamics import WorldDynamics

    world = _resolve_world(args)
    hub = SourceHub.from_world(world)
    dynamics = WorldDynamics(world, seed=args.seed,
                             base_close_hazard=args.hazard)
    dfs = MiniDfs()
    scheduler = SnapshotScheduler(hub, dynamics, dfs)
    history = scheduler.run(days=args.days)
    closed = sum(s.rounds_closed for s in history)
    print(f"tracked {history[-1].tracked} startups over {args.days} days; "
          f"{closed} rounds closed")
    result = analyze_snapshots(dfs)
    print(f"pre-event engagement lift: {result.pre_event_lift:.2f}x")
    print(f"post-event follower bump: "
          f"+{result.post_event_follower_bump:.0f}")
    return 0


def _subscriptions(args: argparse.Namespace) -> List[tuple]:
    """``(tenant, kind, key)`` of every ``--subscribe`` spec."""
    from repro.serve.subscriptions import SUBSCRIPTION_KINDS

    specs = []
    for spec in args.subscribe:
        parts = spec.split(":")
        if len(parts) not in (2, 3) or parts[0] not in SUBSCRIPTION_KINDS \
                or not parts[1].lstrip("-").isdigit():
            raise ConfigError(
                f"--subscribe takes KIND:KEY[:TENANT] with KIND one of "
                f"{', '.join(SUBSCRIPTION_KINDS)}; got {spec!r}")
        tenant = parts[2] if len(parts) == 3 else "default"
        specs.append((tenant, parts[0], int(parts[1])))
    return specs


def _alerting_setup(platform: ExploratoryPlatform,
                    args: argparse.Namespace, specs: List[tuple]):
    """Register the standing queries (``specs`` plus ``--subscribers``
    synthetic ones) and return (registry, evaluator, outbox)."""
    import random

    from repro.serve.outbox import Subscriber
    from repro.serve.subscriptions import SUBSCRIPTION_KINDS

    # predicates need community labels + the follow graph
    platform.run_full_crawl()
    registry = platform.subscription_registry()
    subscribers = {}

    def ensure(sub) -> None:
        subscribers.setdefault(
            sub.subscriber_id,
            Subscriber(sub.subscriber_id, tenant=sub.tenant))

    for tenant, kind, key in specs:
        ensure(registry.register(tenant, kind, key))
    if args.subscribers:
        dataset = platform.serve_dataset()
        rng = random.Random(args.seed)
        pools = {
            "company_funding": dataset.keys_for("company"),
            "community_investor": sorted(dataset.community_members),
            "neighborhood_follow": dataset.keys_for("neighborhood"),
        }
        kinds = [k for k in SUBSCRIPTION_KINDS if pools.get(k)]
        for i in range(args.subscribers):
            kind = kinds[i % len(kinds)]
            ensure(registry.register(f"tenant-{i % 4}", kind,
                                     int(rng.choice(pools[kind]))))
    _, evaluator, outbox = platform.alerting_stack(
        registry=registry, subscribers=subscribers, seed=args.seed)
    return registry, evaluator, outbox


def cmd_ingest(args: argparse.Namespace) -> int:
    from repro.crawl.scheduler import CRASH_STATES
    from repro.net.faults import FaultSchedule
    from repro.util.errors import IngestKilled

    specs = _subscriptions(args)
    unit, sep, state = (args.kill_at or "").partition("@")
    if args.kill_at and (not sep or state not in CRASH_STATES):
        raise ConfigError(f"--kill-at takes UNIT@STATE with STATE one of "
                          f"{', '.join(CRASH_STATES)}")
    platform = ExploratoryPlatform(_resolve_world(args),
                                   config=_platform_config(args))
    platform.config.beat_interval_s = args.beat_interval
    platform.config.frontier_batch = args.frontier_batch
    platform.config.max_delivery_attempts = args.max_delivery_attempts
    if args.alert_chaos:
        platform.config.faults = FaultSchedule.alert_chaos(
            args.alert_chaos, seed=args.chaos_seed)
    try:
        alerting = outbox = None
        if specs or args.subscribers:
            _, alerting, outbox = _alerting_setup(platform, args, specs)
        scheduler = platform.ingest_pipeline(alerting=alerting)
        if args.kill_at:
            if scheduler.faults is None:
                scheduler.faults = FaultSchedule.none()
            scheduler.faults.force_ingest_kill(unit, state)
        while True:
            try:
                report = scheduler.run_until_day(args.days)
                break
            except IngestKilled as kill:
                print(f"scheduler killed at {kill.unit} [{kill.state}]")
                if not args.ingest_resume:
                    print("rerun with --ingest-resume to pick the work "
                          "back up from the write-ahead ledger")
                    return 1
                scheduler = platform.ingest_pipeline(alerting=alerting)
                pending = scheduler.ledger.pending_units()
                print(f"resumed as {scheduler.owner}: "
                      f"{len(pending)} pending unit(s) to redeliver, "
                      f"{scheduler.stats.vacuumed_files} orphan file(s) "
                      f"vacuumed")
        stats = report.stats
        print(f"day {report.day} reached in {stats.beats} beats: "
              f"{stats.units_committed} units committed, "
              f"{stats.units_redelivered} redelivered, "
              f"{stats.lands_skipped} duplicate lands absorbed, "
              f"{stats.leases_taken_over} leases taken over")
        for name, count in sorted(report.dataset_keys.items()):
            print(f"  {name:<26} {count:>7} keys")
        print(f"derived recompute scanned "
              f"{report.derived_records_scanned} delta records")
        if outbox is not None:
            outbox.drain()
            ostats = outbox.stats
            quarantined = outbox.quarantined()
            print(f"standing queries: {alerting.stats.notifications} "
                  f"notifications from "
                  f"{alerting.stats.units_evaluated} derived units "
                  f"({alerting.stats.records_scanned} delta records "
                  f"scanned, never a rescan)")
            print(f"outbox: {ostats.delivered} delivered in "
                  f"{ostats.attempts} attempts "
                  f"({ostats.failures} subscriber failures, "
                  f"{ostats.acks_dropped} dropped acks, "
                  f"{ostats.dup_deliveries} channel duplicates deduped), "
                  f"{len(quarantined)} poison subscriber(s) quarantined")
    finally:
        platform.close()
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    """Regenerate every paper artifact into an output directory."""
    import json
    import os

    from repro.analysis.strength import community_figure_svg
    from repro.viz.ascii import ascii_cdf, ascii_histogram

    os.makedirs(args.out, exist_ok=True)
    with _crawled_platform(args) as platform:
        def write(name: str, content: str) -> None:
            path = os.path.join(args.out, name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(content)
            print(f"wrote {path}")

        table = platform.run_plugin("engagement_table")
        write("fig6_engagement_table.txt", table.render() + "\n")

        activity = platform.run_plugin("investor_activity")
        write("fig3_investor_cdf.txt", activity.render_cdf() + "\n")

        report = platform.run_plugin("concentration")
        write("sec51_concentration.txt", report.render() + "\n")

        study = platform.run_plugin("community_study",
                                    global_pairs=args.pairs)
        strong_cdf = next(iter(study.strong_cdfs.values()))
        write("fig4_shared_size_cdf.txt",
              ascii_cdf(list(strong_cdf._sorted),
                        label="shared investment size") + "\n")
        write("fig5_community_pdf.txt",
              ascii_histogram(study.shared_pcts, bins=10,
                              label="% companies ≥2 shared investors")
              + "\n")
        graph = platform.investor_graph()
        write("fig7a_strong.svg", community_figure_svg(
            study, graph, study.strong_community_id, title="strong"))
        write("fig7b_weak.svg", community_figure_svg(
            study, graph, study.weak_community_id, title="weak"))

        summary = {
            "engagement": {row.label: row.success_pct
                           for row in table.rows},
            "investor_activity": {
                "mean": activity.mean_investments,
                "median": activity.median_investments,
                "max": activity.max_investments},
            "communities": {
                "count": study.coda.num_communities,
                "mean_shared_pct": study.mean_shared_pct,
                "randomized_pct": study.randomized_mean_shared_pct},
        }
        write("summary.json", json.dumps(summary, indent=2) + "\n")
    return 0


def _add_serve_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--qps-limit", type=float, default=50.0,
                        help="sustained admitted request rate; excess "
                             "arrivals are shed at the front door")
    parser.add_argument("--queue-depth", type=int, default=16,
                        help="bounded request queue depth")
    parser.add_argument("--default-deadline", type=float, default=0.25,
                        metavar="SECONDS",
                        help="latency budget of requests without one")
    parser.add_argument("--stale-ttl", type=float, default=30.0,
                        metavar="SECONDS",
                        help="serve cached answers this old (flagged "
                             "stale) when the fresh path is unaffordable")
    parser.add_argument("--serve-workers", type=int, default=2,
                        help="simulated query worker slots")
    parser.add_argument("--slow-datanode", type=float, default=0.0,
                        metavar="SECONDS",
                        help="make one DFS datanode this slow (exercises "
                             "hedged replica reads); others get 4 ms")
    parser.add_argument("--shards", type=int, default=0,
                        help="shard the serve indexes across N scatter-"
                             "gather shard servers (0 = single node)")
    parser.add_argument("--shard-replicas", type=int, default=2,
                        help="replicas per shard server")
    parser.add_argument("--tenants", type=int, default=1,
                        help="number of tenants in the workload")
    parser.add_argument("--fair-share", action="store_true",
                        help="isolate tenants with weighted-fair "
                             "admission (per-tenant buckets + WFQ)")
    parser.add_argument("--tenant-weights", default=None,
                        metavar="W1,W2,...",
                        help="fair-share weights, one per tenant "
                             "(default: equal)")
    parser.add_argument("--autoscale", action="store_true",
                        help="enable the HealthMonitor-driven shard "
                             "replica autoscaler")


def _serve_objects(args: argparse.Namespace) -> tuple:
    """(serve_config, shard_config, tenants, autoscale) from the serve
    flags; raises :class:`ConfigError` before any world is generated."""
    from repro.serve.autoscale import AutoscaleConfig
    from repro.serve.service import ServeConfig
    from repro.serve.sharding import ShardConfig
    from repro.serve.tenancy import default_tenants

    config = ServeConfig(qps_limit=args.qps_limit,
                         queue_depth=args.queue_depth,
                         workers=args.serve_workers,
                         default_deadline_s=args.default_deadline,
                         stale_ttl_s=args.stale_ttl)
    if args.shards <= 0:
        return config, None, None, None
    shard_config = ShardConfig(num_shards=args.shards,
                               replicas=args.shard_replicas)
    tenants = None
    if args.fair_share and args.tenants > 1:
        weights = ()
        if args.tenant_weights:
            try:
                weights = [float(w) for w in args.tenant_weights.split(",")]
            except ValueError:
                raise ConfigError(f"--tenant-weights takes numbers, got "
                                  f"{args.tenant_weights!r}") from None
        tenants = default_tenants(args.tenants, weights)
    autoscale = AutoscaleConfig() if args.autoscale else None
    return config, shard_config, tenants, autoscale


def _query_service(platform: ExploratoryPlatform, objects: tuple,
                   faults=None):
    """The single-node or sharded query service ``objects`` describe."""
    config, shard_config, tenants, autoscale = objects
    if shard_config is None:
        return platform.query_service(config=config, faults=faults)
    return platform.sharded_query_service(
        config=config, shard_config=shard_config, tenants=tenants,
        autoscale=autoscale, faults=faults)


def _apply_serve_latencies(platform: ExploratoryPlatform,
                           args: argparse.Namespace) -> None:
    if args.slow_datanode <= 0:
        return
    for index, node_id in enumerate(sorted(platform.dfs.datanodes)):
        platform.dfs.set_datanode_latency(
            node_id, args.slow_datanode if index == 0 else 0.004)


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.loadgen import LoadProfile, generate_schedule

    objects = _serve_objects(args)
    _, _, tenants, _ = objects
    with _crawled_platform(args) as platform:
        dataset = platform.serve_dataset()
        _apply_serve_latencies(platform, args)
        service = _query_service(platform, objects)
        profile = LoadProfile(qps=max(1.0, args.qps_limit / 2),
                              duration_s=max(1.0,
                                             args.queries / args.qps_limit),
                              seed=args.serve_seed,
                              tenants=args.tenants if tenants else 1)
        schedule = generate_schedule(profile, dataset)[:args.queries]
        for request in schedule:
            result = service.handle(request)
            flag = " (stale)" if result.stale else ""
            print(f"{request.kind:<12} key={request.key:<8} "
                  f"[{request.priority}] -> {result.status}{flag} "
                  f"{1000 * result.latency_s:.1f} ms")
        metrics = service.metrics
        print(f"\n{metrics.offered} offered, {metrics.admitted} admitted, "
              f"{metrics.shed} shed; p50 {1000 * metrics.p50():.1f} ms, "
              f"p99 {1000 * metrics.p99():.1f} ms; "
              f"health={service.health.state}")
    return 0


def cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.net.faults import FAULT_BROWNOUT, FaultSchedule
    from repro.serve.loadgen import LoadProfile, run_bench

    objects = _serve_objects(args)
    _, shard_config, tenants, _ = objects
    with _crawled_platform(args) as platform:
        dataset = platform.serve_dataset()
        _apply_serve_latencies(platform, args)
        if args.serve_shard_chaos > 0:
            faults = FaultSchedule.serve_shard_chaos(
                args.serve_shard_chaos, seed=args.chaos_seed)
        elif args.serve_chaos > 0:
            faults = FaultSchedule.serve_chaos(args.serve_chaos,
                                               seed=args.chaos_seed)
        else:
            faults = FaultSchedule.none()
        if args.brownout_at is not None:
            faults.force_window(FAULT_BROWNOUT, start=args.brownout_at,
                                span=20, duration=0.4)
        service = _query_service(platform, objects, faults)
        profile = LoadProfile(qps=args.qps_limit * args.overload,
                              duration_s=args.duration,
                              seed=args.serve_seed,
                              tenants=args.tenants if tenants else 1)
        report = run_bench(service, dataset, profile)
        print(f"offered {report.offered} at {profile.qps:.0f} qps "
              f"({args.overload:.0f}x the {args.qps_limit:.0f} qps limit) "
              f"over {args.duration:.0f}s")
        print(f"admitted {report.admitted}, shed {report.shed} "
              f"({100 * report.shed_fraction:.1f}%), "
              f"answered {report.answered} "
              f"({100 * report.answered_fraction:.1f}% of admitted, "
              f"{report.stale_served} stale)")
        print(f"p50 {1000 * report.p50_latency_s:.1f} ms, "
              f"p99 {1000 * report.p99_latency_s:.1f} ms, "
              f"goodput {report.goodput_qps:.1f} qps, "
              f"max queue {report.max_queue_len}/{args.queue_depth}")
        print(f"hedges {report.hedges_launched} launched / "
              f"{report.hedges_won} won "
              f"({report.hedge_wasted_reads} wasted loser reads); "
              f"health={report.health_state} "
              f"after {report.health_transitions} transitions")
        if shard_config is not None:
            shards = service.metrics.per_shard
            calls = sum(c.calls for c in shards.values())
            failed = sum(c.failed_dead + c.failed_partitioned
                         + c.failed_deadline for c in shards.values())
            print(f"shards: {shard_config.num_shards} x "
                  f"{shard_config.replicas} replicas, {calls} calls "
                  f"({failed} failed), {report.partial_results} partial "
                  f"results, {report.scaling_decisions} scaling decisions")
        for tenant_id in sorted(report.per_tenant):
            row = report.per_tenant[tenant_id]
            print(f"  tenant {tenant_id}: offered {row['offered']}, "
                  f"admitted {row['admitted']}, answered "
                  f"{row['answered']}")
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(report.to_json() + "\n")
            print(f"report written to {args.json}")
    return 0


def cmd_select_communities(args: argparse.Namespace) -> int:
    from repro.community.selection import select_num_communities
    with _crawled_platform(args) as platform:
        graph = platform.investor_graph().filter_investors(4)
        result = select_num_communities(graph, args.candidates,
                                        seed=args.seed)
        print(f"held-out edges: {result.holdout_edges}")
        for num, auc in result.ranked():
            marker = "  ← best" if num == result.best_num_communities else ""
            print(f"  C={num:<4} AUC={auc:.3f}{marker}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the ExploreDB'16 crowdfunding study")
    sub = parser.add_subparsers(dest="command", required=True)

    crawl = sub.add_parser("crawl", help="run the full §3 crawl")
    _add_world_args(crawl)
    crawl.add_argument("--save", metavar="FILE",
                       help="save the generated world (gzipped JSON)")
    crawl.set_defaults(fn=cmd_crawl)

    analyze = sub.add_parser("analyze", help="run a built-in analysis")
    _add_world_args(analyze)
    analyze.add_argument("what", choices=("engagement", "investors",
                                          "concentration", "communities",
                                          "prediction"))
    analyze.add_argument("--pairs", type=int, default=50_000,
                         help="global pair-sample size for Figure 4")
    analyze.set_defaults(fn=cmd_analyze)

    theory = sub.add_parser(
        "theory", help='test hypotheses, e.g. "raised ~ has_facebook"')
    _add_world_args(theory)
    theory.add_argument("hypotheses", nargs="+")
    theory.set_defaults(fn=cmd_theory)

    snapshot = sub.add_parser("snapshot", help="longitudinal study")
    _add_world_args(snapshot)
    snapshot.add_argument("--days", type=int, default=30)
    snapshot.add_argument("--hazard", type=float, default=0.02)
    snapshot.set_defaults(fn=cmd_snapshot)

    ingest = sub.add_parser(
        "ingest", help="run the durable continuous-ingest tier")
    _add_world_args(ingest)
    ingest.add_argument("--days", type=int, default=5,
                        help="run until this simulated day fully commits")
    ingest.add_argument("--beat-interval", type=float, default=60.0,
                        metavar="SECONDS",
                        help="simulated seconds between scheduler beats")
    ingest.add_argument("--frontier-batch", type=int, default=16,
                        help="frontier entities expanded per work unit")
    ingest.add_argument("--kill-at", metavar="UNIT@STATE",
                        help="SIGKILL-equivalent the scheduler when UNIT "
                             "(e.g. day-0002:snapshot) reaches STATE "
                             "(pre-intent/post-intent/mid-land/"
                             "pre-commit/post-commit)")
    ingest.add_argument("--ingest-resume", action="store_true",
                        help="after a kill, construct a fresh scheduler "
                             "over the same storage and resume from the "
                             "write-ahead ledger")
    ingest.add_argument("--subscribe", action="append", default=[],
                        metavar="KIND:KEY[:TENANT]",
                        help="register a standing query before ingest "
                             "starts (kinds: community_investor, "
                             "company_funding, neighborhood_follow; "
                             "tenant defaults to 'default'); repeatable. "
                             "Matched events are delivered through the "
                             "durable outbox after the run")
    ingest.add_argument("--subscribers", type=int, default=0, metavar="N",
                        help="additionally register N synthetic standing "
                             "queries spread across kinds and tenants "
                             "(deterministic in --seed)")
    ingest.add_argument("--max-delivery-attempts", type=int, default=5,
                        help="failed outbox deliveries before a "
                             "subscriber is quarantined as poison")
    ingest.add_argument("--alert-chaos", type=float, default=0.0,
                        metavar="INTENSITY",
                        help="seeded delivery-path fault intensity "
                             "(kill_subscriber/drop_ack/dup_deliver + "
                             "rare ingest kills; 0 disables, 1.0 = the "
                             "alert-chaos profile)")
    ingest.set_defaults(fn=cmd_ingest)

    figures = sub.add_parser(
        "figures", help="regenerate every paper artifact into a directory")
    _add_world_args(figures)
    figures.add_argument("--out", default="artifacts")
    figures.add_argument("--pairs", type=int, default=50_000)
    figures.set_defaults(fn=cmd_figures)

    select = sub.add_parser("select-communities",
                            help="sweep CoDA community counts")
    _add_world_args(select)
    select.add_argument("--candidates", type=int, nargs="+",
                        default=[6, 12, 24, 48])
    select.set_defaults(fn=cmd_select_communities)

    serve = sub.add_parser(
        "serve", help="answer sample queries via the online query tier")
    _add_world_args(serve)
    _add_serve_args(serve)
    serve.add_argument("--queries", type=int, default=20,
                       help="number of sample queries to answer")
    serve.add_argument("--serve-seed", type=int, default=0,
                       help="seed of the sampled query schedule")
    serve.set_defaults(fn=cmd_serve)

    bench = sub.add_parser(
        "serve-bench",
        help="replay a seeded overload schedule against the query tier")
    _add_world_args(bench)
    _add_serve_args(bench)
    bench.add_argument("--overload", type=float, default=10.0,
                       help="offered load as a multiple of --qps-limit")
    bench.add_argument("--duration", type=float, default=10.0,
                       metavar="SECONDS",
                       help="simulated length of the arrival schedule")
    bench.add_argument("--serve-seed", type=int, default=0,
                       help="seed of the arrival schedule")
    bench.add_argument("--brownout-at", type=int, default=None,
                       metavar="INDEX",
                       help="force a 20-request backend brownout window "
                            "starting at this backend-request index")
    bench.add_argument("--serve-chaos", type=float, default=0.0,
                       metavar="INTENSITY",
                       help="seeded request-path fault intensity "
                            "(0 disables; 1.0 = the chaos profile)")
    bench.add_argument("--serve-shard-chaos", type=float, default=0.0,
                       metavar="INTENSITY",
                       help="seeded shard-tier fault intensity: replica "
                            "slowdowns, shard partitions, shard kills "
                            "(0 disables; takes precedence over "
                            "--serve-chaos)")
    bench.add_argument("--json", metavar="FILE",
                       help="write the full BenchReport as JSON")
    bench.set_defaults(fn=cmd_serve_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
