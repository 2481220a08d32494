"""Figure 3: the long-tailed distribution of investor activity.

"Our data revealed that on average, each investor follows 247 companies
on AngelList, but makes an investment only to 3.3 companies on average,
with the median being 1. The most active investor makes close to 1000
investments."
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.engine.context import SparkLiteContext
from repro.graph.bipartite import BipartiteGraph
from repro.metrics.ecdf import EmpiricalCDF
from repro.viz.ascii import ascii_series


@dataclass
class InvestorActivity:
    """Figure 3's distribution plus the §3 headline numbers."""

    investments_cdf: EmpiricalCDF
    mean_investments: float
    median_investments: float
    max_investments: int
    mean_follows_per_investor: float

    def render_cdf(self) -> str:
        xs, ys = self.investments_cdf.series()
        return ascii_series(xs, ys, x_label="investments per investor",
                            y_label="F(x)")


def compute_investor_activity(sc: SparkLiteContext, dfs,
                              graph: BipartiteGraph,
                              angellist_root: str = "/crawl/angellist",
                              ) -> InvestorActivity:
    """Distribution of investments per investor + mean follow fan-out."""
    degrees = graph.out_degrees()
    if degrees.size == 0:
        raise ValueError("the investment graph has no investors")
    cdf = EmpiricalCDF(degrees.tolist())

    # Mean follows per *investor-role* user, from the crawled follow edges.
    investor_ids = set(
        sc.json_dataset(dfs, f"{angellist_root}/users")
        .filter(lambda u: "investor" in u.get("roles", []))
        .map(lambda u: int(u["id"]))
        .collect())
    # the read keeps one id per passing edge, and each partition ships
    # one (investor, count) pair per investor it saw
    follow_counts: Dict[int, int] = (
        sc.json_dataset(dfs, f"{angellist_root}/follow_edges")
        .filter(lambda e: e["dst_type"] == "startup"
                and int(e["src_user"]) in investor_ids)
        .map(lambda e: int(e["src_user"]))
        .map_partitions(_counted)
        .reduce_by_key(operator.add)
        .collect_as_map())
    mean_follows = (sum(follow_counts.values()) / len(investor_ids)
                    if investor_ids else 0.0)

    return InvestorActivity(
        investments_cdf=cdf,
        mean_investments=cdf.mean,
        median_investments=cdf.median,
        max_investments=int(cdf.max),
        mean_follows_per_investor=mean_follows,
    )


def _counted(ids: Iterable[int]) -> List[Tuple[int, int]]:
    """``(id, occurrences)`` for each distinct id of one partition."""
    return list(Counter(ids).items())
