"""E5 / Figure 4 — CDFs of shared investment size.

Paper: the three strongest communities' CDFs lie well below the global
i.i.d.-pair CDF (i.e. their pairs share far more investments); the
strongest two average 2.1 and 1.6 shared co-investments, max 48; the
800,000-pair global estimate satisfies ‖F_n − F‖∞ ≤ 0.0196 w.p. ≥ 99%
(DKW actually guarantees 0.0018 at that n — we report both).
"""

import numpy as np

from benchmarks.conftest import WORLD_SEED, paper_row
from repro.viz.ascii import ascii_cdf


def test_fig4_shared_investment_cdfs(benchmark, bench_study, bench_graph):
    study = bench_study
    _graph = bench_graph

    # Time the Figure 4 computation: per-community pairwise CDFs plus a
    # fresh global pair sample (smaller than the study's, per round).
    def figure4(graph=None):
        from repro.metrics.ecdf import EmpiricalCDF
        from repro.metrics.shared import (pairwise_shared_sizes,
                                          sampled_shared_sizes)
        from repro.util.rng import RngStream
        portfolios = _graph.portfolios()
        cdfs = []
        for cid in study.strong_cdfs:
            members = sorted(study.coda.investor_communities[cid])
            sizes = pairwise_shared_sizes(members, portfolios)
            if sizes:
                cdfs.append(EmpiricalCDF(sizes))
        sample = sampled_shared_sizes(_graph.investors, portfolios,
                                      20_000, RngStream(1, "bench"))
        return cdfs, EmpiricalCDF(sample)

    benchmark.pedantic(figure4, rounds=3, iterations=1)

    print("\nFigure 4 — shared-investment-size CDFs")
    strongest = sorted(study.strengths,
                       key=lambda s: -s.avg_shared_size)[:3]
    for rank, strength in enumerate(strongest, 1):
        paper_avg = {1: "2.1", 2: "1.6", 3: "—"}[rank]
        print(paper_row(f"strong community #{rank} avg shared",
                        paper_avg, f"{strength.avg_shared_size:.2f}"))
    max_shared = max(s.max_shared_size for s in study.strengths)
    print(paper_row("max shared size across communities", "48 (full scale)",
                    f"{max_shared}"))
    print(paper_row("global pairs sampled", "800,000 (full scale)",
                    f"{study.global_pairs_sampled:,}"))
    print(paper_row("sup-norm bound (99%)", "0.0196 (paper, loose)",
                    f"{study.dkw_bound:.4f} (DKW)"))
    print(paper_row("global mean shared size", "≈0",
                    f"{study.global_cdf.mean:.4f}"))

    # Shape: strong communities dominate the global baseline.
    for cdf in study.strong_cdfs.values():
        assert cdf.mean > 5 * study.global_cdf.mean
    assert strongest[0].avg_shared_size > 1.0
    assert study.global_cdf.mean < 0.2
    assert study.dkw_bound < 0.0196  # paper's claim holds a fortiori
