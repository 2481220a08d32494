"""Delta-aware maintenance of the derived follow/investment datasets.

§5.1 derives the bipartite investor graph with a full Spark merge over
every crawled record; run daily over a continuous crawl that would
re-scan an ever-growing dataset to rediscover edges it already knows.
The maintainer instead reads **only the delta parts** the source upsert
datasets gained since the last committed watermark — through the engine
(:meth:`~repro.engine.context.SparkLiteContext.json_files`, one
partition per delta) — and upserts the resulting edges into derived
upsert datasets keyed by the edge itself, so re-derived edges collapse
instead of duplicating:

* ``<root>/investment_edges`` — distinct ``(investor_id, company_id)``
  edges, the exact edge list :func:`repro.graph.build` materializes
  from scratch;
* ``<root>/follow_edges`` — distinct ``(src_user, dst_type, dst_id)``
  follow edges.

The recompute is *bounded*: each source record is scanned by the engine
at most once over the lifetime of the pipeline (when its delta first
lands), where a daily full rebuild scans the entire corpus every day —
the A8 benchmark gates on exactly this ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.dfs.filesystem import MiniDfs
from repro.dfs.upsert import UpsertDataset
from repro.engine.context import SparkLiteContext


@dataclass
class DerivedUpdate:
    """What one incremental maintenance pass did."""

    unit_id: str
    records_scanned: int = 0       # delta records the engine read
    investment_edges_landed: int = 0
    follow_edges_landed: int = 0
    #: per-source watermark after this pass (delta seq, inclusive)
    watermarks: Dict[str, int] = None


class DerivedMaintainer:
    """Incrementally maintains derived edge datasets from source deltas."""

    #: source name → (key of the derived dataset it feeds)
    INVESTMENTS = "investments"
    FOLLOWS = "follow_edges"

    def __init__(self, sc: SparkLiteContext, dfs: MiniDfs,
                 investments_src: UpsertDataset,
                 follows_src: UpsertDataset,
                 root: str = "/ingest/derived"):
        self.sc = sc
        self.dfs = dfs
        self.sources = {self.INVESTMENTS: investments_src,
                        self.FOLLOWS: follows_src}
        self.root = root.rstrip("/")
        self.investment_edges = UpsertDataset(
            dfs, f"{self.root}/investment_edges",
            key=("investor_id", "company_id"))
        self.follow_edges = UpsertDataset(
            dfs, f"{self.root}/follow_edges",
            key=("src_user", "dst_type", "dst_id"))
        #: lifetime accounting the A8 bench gates on
        self.records_scanned_total = 0

    # -------------------------------------------------------------- planning
    def plan(self, watermarks: Optional[Dict[str, int]] = None,
             ) -> Dict[str, List[int]]:
        """Pin the delta range each source contributes to the next pass.

        Returned as ``{source: [from_exclusive, to_inclusive]}`` — this
        goes into the work unit's *intent* payload, so a redelivered
        pass re-reads exactly the same deltas even if newer ones landed
        meanwhile.
        """
        watermarks = watermarks or {}
        plan = {}
        for name, src in self.sources.items():
            low = int(watermarks.get(name, 0))
            plan[name] = [low, src.max_delta_seq()]
        return plan

    # -------------------------------------------------------------- execute
    def update(self, unit_id: str, plan: Dict[str, List[int]],
               on_delta_written=None) -> DerivedUpdate:
        """Run one maintenance pass over the planned delta ranges.

        Exactly-once by ``unit_id``: the derived datasets skip a unit
        they already absorbed, so a crash between landing and ledger
        commit redelivers harmlessly.
        """
        result = DerivedUpdate(unit_id=unit_id, watermarks={})
        invest_records: List[Dict] = []
        follow_records: List[Dict] = []
        for name, (low, high) in sorted(plan.items()):
            src = self.sources[name]
            files = [path for seq, path in src.delta_files_since(low)
                     if seq <= high]
            result.watermarks[name] = high
            if not files:
                continue
            rows = self.sc.json_files(self.dfs, files,
                                      name=f"deltas:{name}").collect()
            result.records_scanned += len(rows)
            if name == self.INVESTMENTS:
                edges = sorted({(int(r["investor_id"]),
                                 int(r["company_id"])) for r in rows})
                invest_records = [
                    {"investor_id": a, "company_id": b} for a, b in edges]
            else:
                edges = sorted({(int(r["src_user"]), str(r["dst_type"]),
                                 int(r["dst_id"])) for r in rows})
                follow_records = [
                    {"src_user": a, "dst_type": t, "dst_id": b}
                    for a, t, b in edges]
        applied = self.investment_edges.apply(
            f"{unit_id}:investments", invest_records,
            on_delta_written=on_delta_written)
        if applied.applied:
            result.investment_edges_landed = applied.records
        applied = self.follow_edges.apply(
            f"{unit_id}:follows", follow_records)
        if applied.applied:
            result.follow_edges_landed = applied.records
        self.records_scanned_total += result.records_scanned
        return result
