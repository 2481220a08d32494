"""§5.2–§5.3 and Figures 4/5/7: the community-strength study.

Pipeline, exactly as the paper runs it:

1. keep investors with ≥ 4 investments ("to make the cluster
   statistically meaningful");
2. detect overlapping communities with CoDA;
3. score each community on both §5.3 metrics;
4. Figure 4 — compare the shared-investment-size CDFs of the top
   strong communities against an i.i.d.-pair global sample (800,000
   pairs by default, the paper's count at any world scale) with a DKW
   bound;
5. Figure 5 — the PDF across communities of the K=2 shared-investor
   percentage, plus the randomized-communities control;
6. Figure 7 — pick the strongest community and a weak community and
   render both as SVG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.community.coda import CoDA, CodaResult
from repro.community.random_baseline import random_communities
from repro.graph.bipartite import BipartiteGraph
from repro.metrics.bounds import dkw_epsilon
from repro.metrics.ecdf import EmpiricalCDF, estimate_pdf
from repro.metrics.shared import (CommunityStrength, community_strength,
                                  pairwise_shared_sizes,
                                  sampled_shared_sizes,
                                  shared_investor_percentage)
from repro.util.rng import RngStream
from repro.viz.svg import render_community_svg


@dataclass
class CommunityStudy:
    """Everything Figures 4, 5 and 7 need."""

    coda: CodaResult
    strengths: List[CommunityStrength]
    #: community id → ECDF of pairwise shared sizes (top strong ones)
    strong_cdfs: Dict[int, EmpiricalCDF]
    global_cdf: EmpiricalCDF
    global_pairs_sampled: int
    dkw_bound: float
    #: per-community K=2 shared-investor percentages (Figure 5's sample)
    shared_pcts: List[float]
    mean_shared_pct: float
    randomized_mean_shared_pct: float
    strong_community_id: int
    weak_community_id: int

    def strength(self, community_id: int) -> CommunityStrength:
        for s in self.strengths:
            if s.community_id == community_id:
                return s
        raise KeyError(f"no community {community_id}")

    def pdf_curve(self, num_points: int = 100):
        """Figure 5's KDE estimate over the per-community percentages."""
        return estimate_pdf(self.shared_pcts, num_points=num_points)


def run_community_study(graph: BipartiteGraph,
                        num_communities: int,
                        min_investments: int = 4,
                        num_strong_cdfs: int = 3,
                        global_pairs: int = 800_000,
                        k: int = 2,
                        seed: int = 0,
                        coda_iters: int = 60) -> CommunityStudy:
    """Run the full §5 study on ``graph``.

    ``global_pairs`` is the Figure 4 i.i.d. pair-sample size; the
    default is the paper's 800,000 whatever the graph's size (the DKW
    bound is reported for whatever size is used).
    """
    rng = RngStream(seed, "strength")
    filtered = graph.filter_investors(min_investments)
    coda = CoDA(num_communities=num_communities, max_iters=coda_iters,
                seed=seed).fit(filtered)

    portfolios = graph.portfolios()
    strengths = [community_strength(cid, sorted(members), portfolios, k=k)
                 for cid, members in coda.investor_communities.items()]
    by_strength = sorted(strengths, key=lambda s: -s.avg_shared_size)

    strong_cdfs: Dict[int, EmpiricalCDF] = {}
    for s in by_strength[:num_strong_cdfs]:
        members = sorted(coda.investor_communities[s.community_id])
        sizes = pairwise_shared_sizes(members, portfolios)
        if sizes:
            strong_cdfs[s.community_id] = EmpiricalCDF(sizes)

    # Figure 4's baseline samples pairs "over all the data" — the full
    # investor population of the bipartite graph, not the ≥4 subgraph.
    investors = graph.investors
    global_sizes = sampled_shared_sizes(investors, portfolios,
                                        global_pairs, rng.child("pairs"))
    global_cdf = EmpiricalCDF(global_sizes if global_sizes else [0])

    shared_pcts = [s.shared_investor_pct for s in strengths]
    randomized = random_communities(
        filtered.investors, [s.size for s in strengths],
        rng.child("random"))
    randomized_pcts = [
        shared_investor_percentage(sorted(members), portfolios, k=k)
        for members in randomized.values()]

    strong_id = by_strength[0].community_id if by_strength else -1
    weak_id = _pick_weak(by_strength)

    return CommunityStudy(
        coda=coda,
        strengths=strengths,
        strong_cdfs=strong_cdfs,
        global_cdf=global_cdf,
        global_pairs_sampled=len(global_sizes),
        dkw_bound=dkw_epsilon(max(1, len(global_sizes)), confidence=0.99),
        shared_pcts=shared_pcts,
        mean_shared_pct=float(np.mean(shared_pcts)) if shared_pcts else 0.0,
        randomized_mean_shared_pct=(float(np.mean(randomized_pcts))
                                    if randomized_pcts else 0.0),
        strong_community_id=strong_id,
        weak_community_id=weak_id,
    )


def _pick_weak(by_strength: List[CommunityStrength]) -> int:
    """The weak exemplar: lowest avg shared size among non-trivial ones."""
    candidates = [s for s in by_strength if s.size >= 4]
    if not candidates:
        return by_strength[-1].community_id if by_strength else -1
    return candidates[-1].community_id


def community_figure_svg(study: CommunityStudy, graph: BipartiteGraph,
                         community_id: int, title: str = "",
                         seed: int = 0) -> str:
    """Figure 7 rendering for one community of the study."""
    members = sorted(study.coda.investor_communities[community_id])
    edges = [(u, c) for u in members for c in graph.portfolio(u)]
    return render_community_svg(members, edges, title=title, seed=seed)
