"""ExploratoryPlatform: sources → crawlers → DFS → engine → plug-ins."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.crawl.augment import AugmentResult, CrunchBaseAugmenter
from repro.crawl.breaker import CircuitBreaker, breaker_for
from repro.crawl.client import (ApiClient, AUTH_QUERY_USER_KEY)
from repro.crawl.deadletter import DeadLetterQueue
from repro.crawl.enrich import EnrichResult, FacebookCrawler, TwitterCrawler
from repro.crawl.frontier import BfsCrawler, CrawlResult
from repro.crawl.tokens import TokenPool
from repro.dfs.filesystem import MiniDfs
from repro.engine.cache import STORAGE_DFS, STORAGE_MEMORY
from repro.engine.context import SparkLiteContext
from repro.graph.bipartite import BipartiteGraph
from repro.graph.build import build_investor_graph
from repro.graph.follows import FollowIndex
from repro.net.faults import FaultPlan
from repro.net.latency import LatencyModel
from repro.core.plugins import PluginRegistry
from repro.serve.dataset import ServeDataset
from repro.serve.service import QueryService, ServeConfig
from repro.sources.hub import SourceHub
from repro.util.clock import SimClock
from repro.util.errors import ConfigError
from repro.world.config import WorldConfig
from repro.world.generator import World, generate_world


@dataclass
class PlatformConfig:
    """Operational knobs of the platform (not the world)."""

    engine_parallelism: int = 4
    #: "serial" / "thread" / "process" (see repro.engine.backends)
    engine_backend: str = "thread"
    #: per-partition task re-execution budget (Spark-style)
    task_retries: int = 1
    # ---- shuffle fast path (see DESIGN.md "Shuffle fast path") ----
    #: zlib-compress shuffle blocks above the engine's size threshold
    shuffle_compress: bool = False
    # ---- columnar core (see DESIGN.md "Columnar core") ----
    #: run elementwise ops and shuffles over columnar record batches
    #: (byte-identical results; shm-backed exchange on the process
    #: backend where the platform supports it)
    engine_columnar: bool = False
    #: rows per record batch when the columnar engine is on
    batch_rows: int = 4096
    #: broadcast one join side when its serialized size fits under this
    #: many bytes (0 disables; raw contexts default to off, the platform
    #: opts in because its dimension tables are small)
    broadcast_join_threshold: int = 256 * 1024
    # ---- adaptive planning (see DESIGN.md "Adaptive planning") ----
    #: runtime stats sampling + partition coalescing, skew splitting
    #: and observed-size broadcast decisions (results byte-identical to
    #: the static plans)
    engine_adaptive: bool = False
    #: the adaptive planner's post-shuffle partition size target
    target_partition_bytes: int = 1 << 20
    #: LRU byte budget for persisted partitions (None = unbounded)
    cache_budget: Optional[int] = 64 * 1024 * 1024
    #: storage level for the crawl datasets persisted after a full
    #: crawl: "memory" (LRU + spill) or "dfs" (write-through)
    persist_datasets: str = "memory"
    # ---- task supervision (see DESIGN.md "Recovery matrix") ----
    #: wall-second deadline per partition task; a task past it is a
    #: zombie and is replaced in-driver (None disables)
    task_deadline: Optional[float] = None
    #: launch deterministic backup attempts for straggler tasks
    speculation: bool = False
    #: DFS directory backing RDD.checkpoint() on the platform context
    checkpoint_dir: str = "/engine/checkpoints"
    records_per_part: int = 5000
    latency: LatencyModel = field(default_factory=LatencyModel.zero)
    #: a FaultPlan or (composable, seeded) FaultSchedule
    faults: Any = field(default_factory=FaultPlan.none)
    # ---- resilience knobs (see DESIGN.md "Fault model & resilience") ----
    #: transient-failure retry budget per logical request
    client_max_retries: int = 5
    #: deterministic jitter fraction on client backoff (0 disables)
    client_backoff_jitter: float = 0.0
    #: consecutive failures before a source's circuit breaker opens
    #: (<= 0 disables breakers entirely)
    breaker_failure_threshold: int = 5
    #: park budget-exhausted enrichment requests for replay instead of
    #: failing the crawl
    dead_letters: bool = True
    # ---- continuous ingest (see DESIGN.md "Durable continuous ingest") --
    #: simulated seconds between scheduler beats
    beat_interval_s: float = 60.0
    #: frontier entities expanded per ingest work unit
    frontier_batch: int = 16
    #: compact the upsert datasets every N completed days (0 = never)
    compact_every_days: int = 0
    # ---- standing queries (see DESIGN.md "Standing queries") ----
    #: failed delivery attempts before a subscriber is quarantined
    max_delivery_attempts: int = 5
    #: base of the outbox's deterministic jittered backoff (sim seconds)
    alert_retry_base_s: float = 5.0


@dataclass
class CrawlSummary:
    """Results of the full §3 pipeline."""

    angellist: CrawlResult
    crunchbase: AugmentResult
    facebook: EnrichResult
    twitter: EnrichResult

    @property
    def total_requests(self) -> int:
        return (self.angellist.client_stats.requests
                + (self.crunchbase.client_stats.requests
                   if self.crunchbase.client_stats else 0)
                + (self.facebook.client_stats.requests
                   if self.facebook.client_stats else 0)
                + (self.twitter.client_stats.requests
                   if self.twitter.client_stats else 0))


class ExploratoryPlatform:
    """The end-to-end system of the paper's Figure 2.

    Typical use::

        platform = ExploratoryPlatform.over_new_world(WorldConfig.small())
        platform.run_full_crawl()
        table = platform.run_plugin("engagement_table")
    """

    def __init__(self, world: World,
                 config: Optional[PlatformConfig] = None):
        self.world = world
        self.config = config or PlatformConfig()
        if self.config.persist_datasets not in (STORAGE_MEMORY, STORAGE_DFS):
            raise ConfigError(
                f"persist_datasets must be {STORAGE_MEMORY!r} or "
                f"{STORAGE_DFS!r}, got {self.config.persist_datasets!r}")
        self.clock = SimClock()
        self.hub = SourceHub.from_world(world, clock=self.clock,
                                        latency=self.config.latency,
                                        faults=self.config.faults)
        self.dfs = MiniDfs()
        self.sc = SparkLiteContext(
            parallelism=self.config.engine_parallelism,
            backend=self.config.engine_backend,
            task_retries=self.config.task_retries,
            shuffle_compress=self.config.shuffle_compress,
            engine_columnar=self.config.engine_columnar,
            batch_rows=self.config.batch_rows,
            broadcast_join_threshold=self.config.broadcast_join_threshold,
            engine_adaptive=self.config.engine_adaptive,
            target_partition_bytes=self.config.target_partition_bytes,
            cache_budget=self.config.cache_budget,
            cache_dfs=self.dfs,
            task_deadline=self.config.task_deadline,
            speculation=self.config.speculation,
            # engine faults ride the same schedule as network faults; a
            # plain FaultPlan (or a schedule without engine specs) is a
            # no-op for the supervisor
            engine_faults=self.config.faults,
            checkpoint_dir=self.config.checkpoint_dir,
            checkpoint_dfs=self.dfs)
        #: one circuit breaker per source, shared by that source's workers
        self.breakers: Dict[str, Optional[CircuitBreaker]] = {
            name: breaker_for(self.clock, name,
                              self.config.breaker_failure_threshold)
            for name in ("angellist", "crunchbase", "facebook", "twitter")}
        #: per-source dead-letter queues (enrichment crawls only)
        self.dead_letter_queues: Dict[str, DeadLetterQueue] = {}
        if self.config.dead_letters:
            self.dead_letter_queues = {
                name: DeadLetterQueue(self.dfs,
                                      root=f"/crawl/deadletters/{name}")
                for name in ("facebook", "twitter")}
        self.plugins = PluginRegistry()
        #: one dynamics timeline per platform: the world's evolution is
        #: external state that survives ingest-scheduler crashes
        self._ingest_dynamics: Optional[Any] = None
        self.crawl_summary: Optional[CrawlSummary] = None
        self._graph: Optional[BipartiteGraph] = None
        self._follows: Optional[FollowIndex] = None
        self._serve_dataset: Optional[ServeDataset] = None
        _register_builtin_plugins(self.plugins)

    # ---------------------------------------------------------- construction
    @classmethod
    def over_new_world(cls, world_config: Optional[WorldConfig] = None,
                       config: Optional[PlatformConfig] = None,
                       ) -> "ExploratoryPlatform":
        return cls(generate_world(world_config or WorldConfig.small()),
                   config=config)

    # ----------------------------------------------------------------- crawl
    def run_full_crawl(self) -> CrawlSummary:
        """§3 end to end: BFS, augmentation, enrichment. Idempotent-ish:
        raises if datasets already exist (re-create the platform to
        recrawl)."""
        if self.crawl_summary is not None:
            raise ConfigError("this platform already crawled; build a new "
                              "one for a fresh crawl")
        cfg = self.config
        al_tokens = [self.hub.angellist.issue_token(f"bfs-{i}")
                     for i in range(8)]
        # the BFS frontier needs every response inline (each one expands
        # the frontier), so its client retries hard but never dead-letters
        al_client = ApiClient(self.hub.angellist, self.clock,
                              token_pool=TokenPool(al_tokens, self.clock),
                              max_retries=cfg.client_max_retries,
                              backoff_jitter=cfg.client_backoff_jitter,
                              jitter_seed=1,
                              breaker=self.breakers["angellist"])
        bfs = BfsCrawler(al_client, self.dfs,
                         records_per_part=cfg.records_per_part).run()

        cb_client = ApiClient(self.hub.crunchbase, self.clock,
                              auth_style=AUTH_QUERY_USER_KEY,
                              token=self.hub.crunchbase.issue_key(),
                              max_retries=cfg.client_max_retries,
                              backoff_jitter=cfg.client_backoff_jitter,
                              jitter_seed=2,
                              breaker=self.breakers["crunchbase"])
        augment = CrunchBaseAugmenter(
            cb_client, self.dfs,
            records_per_part=cfg.records_per_part).run()

        fb_crawler = FacebookCrawler(
            self.hub.facebook, self.clock, self.dfs,
            records_per_part=cfg.records_per_part,
            max_retries=cfg.client_max_retries,
            backoff_jitter=cfg.client_backoff_jitter,
            jitter_seed=3,
            breaker=self.breakers["facebook"],
            dead_letters=self.dead_letter_queues.get("facebook"))
        facebook = fb_crawler.run()
        tw_crawler = TwitterCrawler(
            self.hub.twitter, self.clock, self.dfs,
            records_per_part=cfg.records_per_part,
            max_retries=cfg.client_max_retries,
            backoff_jitter=cfg.client_backoff_jitter,
            jitter_seed=4,
            breaker=self.breakers["twitter"],
            dead_letters=self.dead_letter_queues.get("twitter"))
        twitter = tw_crawler.run()

        # drain the dead-letter queues: nothing a fault parked is lost
        for crawler, result in ((fb_crawler, facebook),
                                (tw_crawler, twitter)):
            if crawler.dead_letters is None:
                continue
            for _ in range(5):  # replay passes before letters stay parked
                if len(crawler.dead_letters) == 0:
                    break
                crawler.replay(result)

        self.crawl_summary = CrawlSummary(
            angellist=bfs, crunchbase=augment,
            facebook=facebook, twitter=twitter)
        self._persist_crawl_datasets()
        return self.crawl_summary

    #: every dataset directory a full crawl lands (§3)
    CRAWL_DATASET_DIRS = (
        "/crawl/angellist/startups",
        "/crawl/angellist/users",
        "/crawl/angellist/investments",
        "/crawl/angellist/follow_edges",
        "/crawl/crunchbase/organizations",
        "/crawl/facebook/pages",
        "/crawl/twitter/profiles",
    )

    #: the landed datasets more than one pipeline job reads; users and
    #: investments have one reader each and follow_edges is no engine
    #: scan, so caching them would only hold a second copy of the crawl
    PERSISTED_DATASET_DIRS = (
        "/crawl/angellist/startups",        # 3: engagement, prediction, facts
        "/crawl/crunchbase/organizations",  # 3: graph, engagement, prediction
        "/crawl/facebook/pages",            # 2: engagement, prediction
        "/crawl/twitter/profiles",          # 2: engagement, prediction
    )

    def _persist_crawl_datasets(self) -> None:
        """Mark the shared crawl datasets persisted so the analytics
        pipeline (graph build → engagement → prediction) scans each of
        their part files once; the context dedupes ``json_dataset`` by
        directory, so every later job hits the same persisted lineage
        node. A directory this crawl landed nothing in is skipped."""
        for directory in self.PERSISTED_DATASET_DIRS:
            if self.dfs.glob_parts(directory):
                self.sc.json_dataset(self.dfs, directory).persist(
                    self.config.persist_datasets)

    # ------------------------------------------------------------------ data
    def require_crawled(self) -> None:
        if self.crawl_summary is None:
            raise ConfigError("run_full_crawl() must run before analytics")

    def investor_graph(self) -> BipartiteGraph:
        """The §5.1 merged bipartite graph (memoized)."""
        self.require_crawled()
        if self._graph is None:
            self._graph = build_investor_graph(self.sc, self.dfs)
        return self._graph

    def follow_index(self) -> FollowIndex:
        """The crawled follow edges as one columnar index (memoized):
        Figure 3's follow count and the serve tier read the same one."""
        self.require_crawled()
        if self._follows is None:
            self._follows = FollowIndex.from_parts(
                self.dfs, "/crawl/angellist/follow_edges")
        return self._follows

    # ------------------------------------------------------------- ingestion
    def ingest_pipeline(self, root: str = "/ingest",
                        owner: Optional[str] = None,
                        alerting: Any = None) -> Any:
        """A continuous-ingest scheduler over this platform's world.

        Unlike :meth:`run_full_crawl` this tier never "finishes": it
        advances the world's dynamics beat by beat and lands every
        observation through the write-ahead ledger, so a killed
        scheduler resumes by constructing a new one over the same
        platform (same ``dfs``/``hub``) and calling ``run`` again.
        """
        from repro.crawl.scheduler import ContinuousScheduler
        from repro.world.dynamics import WorldDynamics

        cfg = self.config
        if self._ingest_dynamics is None:
            self._ingest_dynamics = WorldDynamics(self.world)
        faults = cfg.faults if hasattr(cfg.faults, "ingest_fault_at") \
            else None
        return ContinuousScheduler(
            self.hub, self._ingest_dynamics, self.dfs, sc=self.sc,
            root=root,
            beat_interval_s=cfg.beat_interval_s,
            owner=owner,
            faults=faults,
            frontier_batch=cfg.frontier_batch,
            records_per_part=cfg.records_per_part,
            compact_every_days=cfg.compact_every_days,
            alerting=alerting)

    # ------------------------------------------------------- standing queries
    def subscription_registry(self, root: str = "/serve/subscriptions",
                              ) -> Any:
        """A durable standing-query registry over this platform's DFS."""
        from repro.serve.subscriptions import SubscriptionRegistry

        return SubscriptionRegistry(self.dfs, root=root).open()

    def alerting_stack(self, registry: Any = None,
                       subscribers: Any = None,
                       seed: int = 0,
                       outbox_root: str = "/serve/outbox") -> Any:
        """(registry, evaluator, outbox), wired and ready to hook into
        :meth:`ingest_pipeline` via its ``alerting=`` parameter.

        The outbox shares the hub clock with the ingest tier — alerts
        and the deliveries they trigger live on the ingest timeline.
        ``subscribers`` maps subscriber id → :class:`Subscriber`; pass
        the ones your subscriptions name.
        """
        from repro.serve.alerting import AlertEvaluator
        from repro.serve.outbox import DeliveryOutbox

        cfg = self.config
        registry = registry or self.subscription_registry()
        faults = cfg.faults if hasattr(cfg.faults, "alert_fault_at") \
            else None
        outbox = DeliveryOutbox(
            self.dfs, self.clock, subscribers or {},
            root=outbox_root, faults=faults, seed=seed,
            max_delivery_attempts=cfg.max_delivery_attempts,
            retry_base_s=cfg.alert_retry_base_s)
        evaluator = AlertEvaluator(registry, self.serve_dataset(),
                                   outbox=outbox)
        return registry, evaluator, outbox

    # ---------------------------------------------------------------- serving
    def serve_dataset(self, community_seed: int = 0) -> ServeDataset:
        """Indexes + summaries the online query tier serves (memoized)."""
        self.require_crawled()
        if self._serve_dataset is None:
            self._serve_dataset = ServeDataset.build(
                self.dfs, community_seed=community_seed,
                follows=self.follow_index())
        return self._serve_dataset

    def query_service(self, config: Optional[ServeConfig] = None,
                      faults: Any = None) -> QueryService:
        """A fresh overload-safe query service over this platform's data.

        The service gets its own :class:`SimClock`: serving time is a
        separate timeline from the crawl that produced the datasets, so
        benchmarks start at t=0 regardless of how long the crawl took.
        """
        return QueryService(self.serve_dataset(), self.dfs,
                            clock=SimClock(), config=config,
                            faults=faults)

    def sharded_query_service(self, config: Optional[ServeConfig] = None,
                              shard_config: Any = None,
                              tenants: Any = None,
                              autoscale: Any = None,
                              faults: Any = None) -> QueryService:
        """A scatter-gather sharded query service over this platform.

        Splits the serve indexes across shard servers (persisting each
        shard's index to the DFS for replica boots), optionally with
        per-tenant fair-share admission and a HealthMonitor-driven
        autoscaler. Same fresh-SimClock convention as
        :meth:`query_service`.
        """
        from repro.serve.sharding import ShardedQueryService

        return ShardedQueryService(self.serve_dataset(), self.dfs,
                                   clock=SimClock(), config=config,
                                   faults=faults,
                                   shard_config=shard_config,
                                   tenants=tenants,
                                   autoscale=autoscale)

    # --------------------------------------------------------------- plug-ins
    def run_plugin(self, name: str, **kwargs: Any) -> Any:
        """Run a registered analytics plug-in over this platform."""
        self.require_crawled()
        return self.plugins.get(name).run(self, **kwargs)

    def close(self) -> None:
        self.sc.stop()

    def __enter__(self) -> "ExploratoryPlatform":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _register_builtin_plugins(registry: PluginRegistry) -> None:
    """The analyses shipped with the platform, as plug-ins."""
    from repro.analysis.engagement import compute_engagement_table
    from repro.analysis.investors import compute_investor_activity
    from repro.analysis.concentration import concentration_report
    from repro.analysis.strength import run_community_study
    from repro.analysis.prediction import predict_success

    registry.register(
        "engagement_table",
        lambda platform, **kw: compute_engagement_table(
            platform.sc, platform.dfs, **kw),
        "Figure 6: social engagement vs fundraising success")
    registry.register(
        "investor_activity",
        lambda platform, **kw: compute_investor_activity(
            platform.sc, platform.dfs, platform.investor_graph(),
            platform.follow_index(), **kw),
        "Figure 3: CDF of investments per investor")
    registry.register(
        "concentration",
        lambda platform, **kw: concentration_report(
            platform.investor_graph(), **kw),
        "§5.1: degree concentration of the bipartite graph")
    registry.register(
        "community_study",
        lambda platform, num_communities=None, **kw: run_community_study(
            platform.investor_graph(),
            num_communities=(num_communities
                             or platform.world.config.num_communities),
            **kw),
        "§5.2–5.3 + Figures 4/5/7: CoDA communities and strength metrics")
    registry.register(
        "success_prediction",
        lambda platform, **kw: predict_success(
            platform.sc, platform.dfs, platform.investor_graph(), **kw),
        "§7: logistic success prediction from graph/social features")
