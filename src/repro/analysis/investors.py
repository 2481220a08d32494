"""Figure 3: the long-tailed distribution of investor activity.

"Our data revealed that on average, each investor follows 247 companies
on AngelList, but makes an investment only to 3.3 companies on average,
with the median being 1. The most active investor makes close to 1000
investments."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.context import SparkLiteContext
from repro.graph.bipartite import BipartiteGraph
from repro.graph.follows import FollowIndex
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
                              graph: BipartiteGraph, follows: FollowIndex,
                              angellist_root: str = "/crawl/angellist",
                              ) -> InvestorActivity:
    """Distribution of investments per investor + mean follow fan-out:
    the *investor-role* users' startup degrees in ``follows``, summed."""
    degrees = graph.out_degrees()
    if degrees.size == 0:
        raise ValueError("the investment graph has no investors")
    cdf = EmpiricalCDF(degrees.tolist())

    investor_ids = set(
        sc.json_dataset(dfs, f"{angellist_root}/users")
        .filter(lambda u: "investor" in u.get("roles", []))
        .map(lambda u: int(u["id"]))
        .collect())
    mean_follows = (follows.startup_follows(investor_ids) / len(investor_ids)
                    if investor_ids else 0.0)

    return InvestorActivity(
        investments_cdf=cdf,
        mean_investments=cdf.mean,
        median_investments=cdf.median,
        max_investments=int(cdf.max),
        mean_follows_per_investor=mean_follows,
    )
